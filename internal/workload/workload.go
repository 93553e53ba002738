// Package workload generates operation streams for the simulator, the
// experiments, and the benchmarks. Each generator produces deterministic
// operations (via model.ReadWrite digests) so recovery correctness is
// sensitive to every read: replaying an operation against a wrong
// read-set value produces a visibly wrong write.
//
// The shapes match what each Section 6 method can execute:
//
//   - SinglePage: read page p, write page p — physiological-legal.
//   - ReadManyWriteOne: read several pages, write one — generalized-LSN
//     legal (the B-tree split shape).
//   - "any" (anyShape): arbitrary read and write sets — logical/physical
//     only.
//   - "blind" (blindWrites): write-only operations — the pure physical
//     shape.
package workload

import (
	"fmt"
	"math/rand"

	"redotheory/internal/model"
)

// Pages returns n page identifiers pg0…pg(n-1).
func Pages(n int) []model.Var {
	out := make([]model.Var, n)
	for i := range out {
		out[i] = model.Var(fmt.Sprintf("pg%02d", i))
	}
	return out
}

// InitialState gives every page a distinct integer value.
func InitialState(pages []model.Var) *model.State {
	s := model.NewState()
	for i, p := range pages {
		s.SetInt(p, int64(1000+i))
	}
	return s
}

// zipf returns a Zipf-distributed page picker (hot pages first) with
// the given skew parameters. rand.NewZipf's imax argument would be
// uint64(len(pages)-1), which collapses to imax=0 for a single page and
// underflows to ^uint64(0) for an empty slice — NewZipf then returns
// nil and the first pick panics. The degenerate fixtures are guarded
// here instead: one page is always picked, and zero pages panics with a
// diagnosable message (callers that tolerate empty fixtures must return
// an empty history before picking).
func zipf(rng *rand.Rand, s, v float64, pages []model.Var) func() model.Var {
	switch len(pages) {
	case 0:
		panic("workload: Zipf picker over zero pages")
	case 1:
		p := pages[0]
		return func() model.Var { return p }
	}
	z := rand.NewZipf(rng, s, v, uint64(len(pages)-1))
	return func() model.Var { return pages[z.Uint64()] }
}

// HotZipf is the Zipf picker with the serve/hot-page parameters
// (s=1.2, v=16): a softened head so the hottest page draws a bounded
// share of the traffic. The serve benchmark's clients share it with
// HotPage/HeavyHotPage so post-crash traffic hits the pages the crashed
// history was hot on.
func HotZipf(rng *rand.Rand, pages []model.Var) func() model.Var {
	return zipf(rng, 1.2, 16, pages)
}

// zipfPick selects a page with a Zipf-ish skew (hot pages first) when
// skew is true, uniformly otherwise.
func zipfPick(rng *rand.Rand, pages []model.Var, skew bool) model.Var {
	if !skew {
		return pages[rng.Intn(len(pages))]
	}
	return zipf(rng, 1.3, 1, pages)()
}

// SinglePage generates n read-modify-write operations, each touching
// exactly one page.
func SinglePage(n int, pages []model.Var, seed int64, skew bool) []*model.Op {
	if len(pages) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	ops := make([]*model.Op, n)
	for i := range ops {
		p := zipfPick(rng, pages, skew)
		ops[i] = model.ReadWrite(model.OpID(i+1), "upd", []model.Var{p}, []model.Var{p})
	}
	return ops
}

// ReadManyWriteOne generates n operations that read up to maxReads pages
// and write exactly one.
func ReadManyWriteOne(n int, pages []model.Var, maxReads int, seed int64) []*model.Op {
	if len(pages) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	ops := make([]*model.Op, n)
	for i := range ops {
		var reads []model.Var
		for _, p := range pages {
			if rng.Float64() < float64(maxReads)/float64(len(pages)) {
				reads = append(reads, p)
			}
		}
		w := pages[rng.Intn(len(pages))]
		ops[i] = model.ReadWrite(model.OpID(i+1), "rmw", reads, []model.Var{w})
	}
	return ops
}

// anyShape generates n operations with arbitrary read and write sets.
func anyShape(n int, pages []model.Var, seed int64) []*model.Op {
	if len(pages) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	ops := make([]*model.Op, n)
	for i := range ops {
		var reads, writes []model.Var
		for _, p := range pages {
			if rng.Float64() < 0.3 {
				reads = append(reads, p)
			}
			if rng.Float64() < 0.3 {
				writes = append(writes, p)
			}
		}
		if len(writes) == 0 {
			writes = []model.Var{pages[rng.Intn(len(pages))]}
		}
		ops[i] = model.ReadWrite(model.OpID(i+1), "any", reads, writes)
	}
	return ops
}

// blindWrites generates n write-only operations.
func blindWrites(n int, pages []model.Var, seed int64) []*model.Op {
	if len(pages) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	ops := make([]*model.Op, n)
	for i := range ops {
		p := pages[rng.Intn(len(pages))]
		ops[i] = model.ReadWrite(model.OpID(i+1), "blind", nil, []model.Var{p})
	}
	return ops
}

// HeavySinglePage generates n single-page read-modify-write operations
// whose compute function iterates the digest fold `rounds` times: a
// stand-in for what replaying a page operation costs in a real system
// (decode the page, recompute the change, re-encode). The parallel
// recovery benchmarks use it so replay work, not scheduling overhead,
// dominates; with a uniform page pick each page's operation chain is an
// independent replay component.
func HeavySinglePage(n int, pages []model.Var, rounds int, seed int64) []*model.Op {
	if len(pages) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	ops := make([]*model.Op, n)
	for i := range ops {
		p := pages[rng.Intn(len(pages))]
		id := model.OpID(i + 1)
		ops[i] = heavyOp(id, "heavy", p, rounds)
	}
	return ops
}

// heavyOp is the single-page read-modify-write both heavy shapes are
// made of: the digest fold over the page's value, iterated rounds times.
func heavyOp(id model.OpID, name string, p model.Var, rounds int) *model.Op {
	return model.NewPosOp(id, name, []model.Var{p}, []model.Var{p},
		func(r, out []model.Value) error {
			const prime = 1099511628211
			h := uint64(14695981039346656037) ^ uint64(id)
			in := string(r[0])
			for k := 0; k < rounds; k++ {
				for j := 0; j < len(in); j++ {
					h ^= uint64(in[j])
					h *= prime
				}
				h ^= uint64(k)
				h *= prime
			}
			out[0] = model.IntVal(int64(h % (1 << 62)))
			return nil
		})
}

// HotPage generates n single-page read-modify-write operations with a
// production-shaped page distribution: a Zipfian pick concentrates
// traffic on a few hot pages, and bursts occasionally pin several
// consecutive operations to the same page (a user hammering one row, a
// queue draining one partition). It is the default workload of the
// instant-restart serve benchmarks — the hot pages are what clients
// touch first after a crash, so lazy per-page redo recovers them far
// ahead of the cold tail. Like every ShapesFor generator it builds ops
// exclusively with model.ReadWrite, so histories are reconstructible
// from repro artifacts.
func HotPage(n int, pages []model.Var, seed int64) []*model.Op {
	if len(pages) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	// The head is softened (v = 16) so the hottest page draws a bounded
	// share of the traffic — many times its uniform share, but still a
	// small fraction of the whole: skew concentrates the working set
	// without turning the history into one giant interference component
	// whose on-demand replay would approach a full recovery.
	pick := HotZipf(rng, pages)
	ops := make([]*model.Op, n)
	burst := 0
	var p model.Var
	for i := range ops {
		if burst > 0 {
			burst-- // ride the current burst: same page again
		} else {
			p = pick()
			if rng.Float64() < 0.2 {
				burst = 1 + rng.Intn(4)
			}
		}
		ops[i] = model.ReadWrite(model.OpID(i+1), "hot", []model.Var{p}, []model.Var{p})
	}
	return ops
}

// HeavyHotPage is HotPage with HeavySinglePage's compute cost: the same
// Zipfian/bursty page sequence, but each operation iterates the digest
// fold `rounds` times so replay work dominates scheduling overhead. The
// serve availability benchmark uses it as its crashed history — cold
// pages carry real redo debt while clients hammer the hot set.
func HeavyHotPage(n int, pages []model.Var, rounds int, seed int64) []*model.Op {
	if len(pages) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	pick := HotZipf(rng, pages)
	ops := make([]*model.Op, n)
	burst := 0
	var p model.Var
	for i := range ops {
		if burst > 0 {
			burst--
		} else {
			p = pick()
			if rng.Float64() < 0.2 {
				burst = 1 + rng.Intn(4)
			}
		}
		id := model.OpID(i + 1)
		ops[i] = heavyOp(id, "heavyhot", p, rounds)
	}
	return ops
}

// BankTransfers generates n two-account transfers (read both accounts,
// write both) over the pages as accounts: a classic multi-variable
// workload for the logical and physical methods.
func BankTransfers(n int, pages []model.Var, seed int64) []*model.Op {
	if len(pages) < 2 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	ops := make([]*model.Op, n)
	for i := range ops {
		from := pages[rng.Intn(len(pages))]
		to := pages[rng.Intn(len(pages))]
		for to == from {
			to = pages[rng.Intn(len(pages))]
		}
		amt := rng.Int63n(50) + 1
		f, tt := from, to
		ops[i] = model.NewOp(model.OpID(i+1), fmt.Sprintf("xfer(%s->%s,%d)", f, tt, amt),
			[]model.Var{f, tt}, []model.Var{f, tt},
			func(r model.ReadSet) model.WriteSet {
				return model.WriteSet{
					f:  model.IntVal(model.AsInt(r[f]) - amt),
					tt: model.IntVal(model.AsInt(r[tt]) + amt),
				}
			})
	}
	return ops
}

// Shape is a named workload generator. Every shape returned by
// ShapesFor builds its operations exclusively with model.ReadWrite, so
// an operation is fully reconstructible from its (ID, Name, Reads,
// Writes) tuple — the property the fuzzer's repro artifacts rely on.
type Shape struct {
	Name string
	Gen  func(n int, pages []model.Var, seed int64) []*model.Op
}

// ShapesFor returns every workload shape that is legal for the named
// method, each a distinct distribution over the method's legal operation
// space. The fuzzer iterates these per method; ForMethod stays the
// single-shape default used by the simulator.
func ShapesFor(name string) ([]Shape, error) {
	singleUniform := Shape{"single-page/uniform", func(n int, pages []model.Var, seed int64) []*model.Op {
		return SinglePage(n, pages, seed, false)
	}}
	singleSkew := Shape{"single-page/skew", func(n int, pages []model.Var, seed int64) []*model.Op {
		return SinglePage(n, pages, seed, true)
	}}
	rmwNarrow := Shape{"rmw/narrow", func(n int, pages []model.Var, seed int64) []*model.Op {
		return ReadManyWriteOne(n, pages, 2, seed)
	}}
	rmwWide := Shape{"rmw/wide", func(n int, pages []model.Var, seed int64) []*model.Op {
		return ReadManyWriteOne(n, pages, 5, seed)
	}}
	arbitrary := Shape{"any", anyShape}
	blind := Shape{"blind", blindWrites}
	// hotPage is single-page RMW, so it is legal for every method.
	hotPage := Shape{"hot-page/zipf", HotPage}
	switch name {
	case "physiological", "physiological+dpt":
		return []Shape{singleUniform, singleSkew, hotPage}, nil
	case "genlsn", "genlsn+mv":
		return []Shape{rmwNarrow, rmwWide, singleUniform, hotPage}, nil
	case "physical", "grouplsn", "logical":
		return []Shape{arbitrary, blind, singleUniform, hotPage}, nil
	default:
		return nil, fmt.Errorf("workload: unknown method %q", name)
	}
}

// ForMethod returns a workload legal for the named method.
func ForMethod(name string, n int, pages []model.Var, seed int64) ([]*model.Op, error) {
	switch name {
	case "physiological", "physiological+dpt":
		return SinglePage(n, pages, seed, false), nil
	case "genlsn", "genlsn+mv":
		return ReadManyWriteOne(n, pages, 3, seed), nil
	case "physical", "grouplsn":
		return anyShape(n, pages, seed), nil
	case "logical":
		return anyShape(n, pages, seed), nil
	default:
		return nil, fmt.Errorf("workload: unknown method %q", name)
	}
}
