package core

import (
	"math"
	"slices"
	"sync"
	"testing"

	"redotheory/internal/model"
)

// incrLog returns a log of n single-page increments with op ids 1..n.
func incrLog(n int) *Log {
	l := NewLog()
	for i := 1; i <= n; i++ {
		l.Append(model.Incr(model.OpID(i), "x", 1))
	}
	return l
}

// TestPrefixAliasing pins the sharing contract of Log.Prefix: the prefix
// views its parent's record slice, and neither side can see or disturb
// the other's later appends and truncations. The parent is cut both
// where it has spare capacity (its next Append writes into the shared
// backing array) and where it has none (its next Append reallocates).
func TestPrefixAliasing(t *testing.T) {
	for _, n := range []int{5, 8} { // append growth leaves cap 8 either way
		l := incrLog(n)
		const k = 3
		p := l.Prefix(k)
		want := append([]*Record(nil), l.Records()[:k]...)
		tail := append([]*Record(nil), l.Records()[k:]...)

		// Appending to the parent is invisible to the prefix.
		l.Append(model.Incr(100, "x", 1))
		if p.Len() != k || !slices.Equal(p.Records(), want) || p.RecordOf(100) != nil || p.NextLSN() != k+1 {
			t.Fatalf("n=%d: parent append leaked into the prefix: %d records, next LSN %d", n, p.Len(), p.NextLSN())
		}

		// Appending to the prefix (the wal.Crash shape: the prefix becomes
		// the live log) must reallocate, not overwrite the parent's tail.
		r := p.Append(model.Incr(200, "x", 1))
		if r.LSN != k+1 || p.Len() != k+1 || p.RecordOf(200) != r {
			t.Fatalf("n=%d: prefix append: LSN %d, len %d", n, r.LSN, p.Len())
		}
		if !slices.Equal(l.Records()[k:k+len(tail)], tail) || l.Len() != n+1 || l.RecordOf(200) != nil {
			t.Fatalf("n=%d: prefix append disturbed the parent's records past the cut", n)
		}

		// Truncating the parent leaves an earlier prefix whole.
		q := l.Prefix(k)
		if dropped := l.TruncateBefore(k); dropped != k-1 {
			t.Fatalf("n=%d: truncated %d records, want %d", n, dropped, k-1)
		}
		if !slices.Equal(q.Records(), want) || q.RecordOf(1) != want[0] || len(q.Operations()) != k {
			t.Fatalf("n=%d: parent truncation damaged the prefix", n)
		}
		if l.RecordOf(1) != nil || l.Records()[0].LSN != k {
			t.Fatalf("n=%d: parent not truncated", n)
		}
	}
}

// TestPrefixIndexMatchesEager compares the lazily indexed, shared prefix
// against an eager reference construction — copy every record with
// LSN ≤ upTo, index each as it is copied, number on from
// min(upTo+1, parent's next LSN) — for every cut of a 64-record log,
// including the empty and past-the-end ones, before and after the parent
// is truncated.
func TestPrefixIndexMatchesEager(t *testing.T) {
	const n = 64
	l := incrLog(n)
	check := func(l *Log) {
		cuts := []LSN{1000, math.MaxUint64 - 1}
		for upTo := LSN(0); upTo <= n+2; upTo++ {
			cuts = append(cuts, upTo)
		}
		for _, upTo := range cuts {
			eager := make(map[model.OpID]*Record)
			var recs []*Record
			for _, r := range l.Records() {
				if r.LSN > upTo {
					break
				}
				recs = append(recs, r)
				eager[r.Op.ID()] = r
			}
			next := upTo + 1
			if l.NextLSN() < next {
				next = l.NextLSN()
			}

			p := l.Prefix(upTo)
			if !slices.Equal(p.Records(), recs) || p.Len() != len(recs) {
				t.Fatalf("Prefix(%d): %d records, want %d", upTo, p.Len(), len(recs))
			}
			if p.NextLSN() != next {
				t.Fatalf("Prefix(%d): next LSN %d, want %d", upTo, p.NextLSN(), next)
			}
			for id := model.OpID(0); id <= n+1; id++ {
				if got := p.RecordOf(id); got != eager[id] {
					t.Fatalf("Prefix(%d).RecordOf(%d) = %v, want %v", upTo, id, got, eager[id])
				}
			}
			ops := p.Operations()
			if len(ops) != len(eager) {
				t.Fatalf("Prefix(%d).Operations() has %d ids, want %d", upTo, len(ops), len(eager))
			}
			for id := range eager {
				if !ops.Has(id) {
					t.Fatalf("Prefix(%d).Operations() lacks %d", upTo, id)
				}
			}
		}
	}
	check(l)
	l.TruncateBefore(20)
	check(l)
}

// TestPrefixRecordOfConcurrent: sharded recovery hands one fresh prefix
// to several goroutines, so the first RecordOf calls race to build the
// index. Run under -race.
func TestPrefixRecordOfConcurrent(t *testing.T) {
	const n = 256
	l := incrLog(n)
	p := l.Prefix(n / 2)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for id := model.OpID(1); id <= n; id++ {
				r := p.RecordOf(id)
				if in := id <= n/2; (r != nil) != in || (in && r.Op.ID() != id) {
					t.Errorf("goroutine %d: RecordOf(%d) = %v", g, id, r)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
