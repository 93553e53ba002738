package btree

import (
	"strings"

	"redotheory/internal/core"
)

// SplitLogBytes sums the simulated wire size of the log records that
// carry a split's new-page contents — "init@…" records under
// physiological logging (full page image) and "split(…" records under
// generalized logging (descriptor only). This isolates the Section 6.4
// log-volume comparison from the insert traffic both strategies share.
func SplitLogBytes(l *core.Log) int {
	total := 0
	for _, r := range l.Records() {
		name := r.Op.Name()
		if strings.HasPrefix(name, "init@") || strings.HasPrefix(name, "split(") {
			total += r.SizeBytes()
		}
	}
	return total
}
