module redotheory/bench

go 1.22

require redotheory v0.0.0

replace redotheory => ../
