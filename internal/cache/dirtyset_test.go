package cache

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"redotheory/internal/core"
	"redotheory/internal/model"
	"redotheory/internal/storage"
	"redotheory/internal/wal"
)

// scanDirty is the reference the ordered dirty set replaced: scan the
// page map, keep the dirty pages, sort.
func scanDirty(m *Manager) []model.Var {
	var out []model.Var
	for id, p := range m.pages {
		if p.dirty {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkDirtySet compares the manager's dirty-set surface with the
// reference scan.
func checkDirtySet(t *testing.T, m *Manager, step string) {
	t.Helper()
	want, got := scanDirty(m), m.DirtyPages()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: DirtyPages() = %v, reference scan = %v", step, got, want)
	}
	var wantMin core.LSN
	for k, id := range want {
		if lsn := m.pages[id].recLSN; k == 0 || lsn < wantMin {
			wantMin = lsn
		}
	}
	if min, ok := m.MinRecLSN(); ok != (len(want) > 0) || min != wantMin {
		t.Fatalf("%s: MinRecLSN() = %d,%v, reference = %d,%v", step, min, ok, wantMin, len(want) > 0)
	}
}

// TestDirtySetModel applies one random sequence of every call that can
// flip a page's dirty bit — and the ones that must not — to a
// single-version and a multi-version manager, and after each step holds
// the ordered dirty set to the reference scan. FlushFirst and
// FlushFirstBest must install the page the reference order picks.
func TestDirtySetModel(t *testing.T) {
	pages := make([]model.Var, 12)
	for i := range pages {
		pages[i] = model.Var(fmt.Sprintf("p%02d", i))
	}
	for _, mv := range []bool{false, true} {
		steals := 0
		for seed := int64(1); seed <= 20; seed++ {
			st, lg := storage.NewStore(), wal.NewManager()
			m := NewManager(st, lg)
			if mv {
				m = NewMVManager(st, lg)
			}
			var installed []model.Var
			m.OnInstall = func(id model.Var, lsn core.LSN) {
				installed = append(installed, id)
				if lsn < m.pages[id].pageLSN {
					steals++ // an older version went out: the page stays dirty
				}
			}
			rng := rand.New(rand.NewSource(seed))
			nextOp := model.OpID(1)
			write := func(id model.Var) {
				val := model.Value(fmt.Sprintf("v%d", nextOp))
				r := lg.Append(model.AssignConst(nextOp, id, val), 1)
				nextOp++
				m.ApplyWrite(id, val, r.LSN)
			}
			pickDirty := func() (model.Var, bool) {
				d := scanDirty(m)
				if len(d) == 0 {
					return "", false
				}
				return d[rng.Intn(len(d))], true
			}
			for step := 0; step < 600; step++ {
				name := fmt.Sprintf("mv=%v seed %d step %d", mv, seed, step)
				switch k := rng.Intn(100); {
				case k < 45:
					write(pages[rng.Intn(len(pages))])
				case k < 55:
					if id, ok := pickDirty(); ok {
						_ = m.Flush(id) // a blocked flush must change nothing
					}
				case k < 62:
					d := scanDirty(m)
					rng.Shuffle(len(d), func(a, b int) { d[a], d[b] = d[b], d[a] })
					if n := len(d); n > 0 {
						_ = m.FlushGroup(d[:1+rng.Intn(n)])
					}
				case k < 72:
					if id, ok := pickDirty(); ok {
						before := m.Versions(id)
						if err := m.FlushBest(id); err == nil && m.Versions(id) > 0 && (!mv || m.Versions(id) >= before) {
							t.Fatalf("%s: partial install left %d of %d versions", name, m.Versions(id), before)
						}
					}
				case k < 84:
					// Block a dirty page's newest version on another dirty
					// page's: satisfiable, and in MV mode the setting for a
					// partial install.
					dep, ok1 := pickDirty()
					pre, ok2 := pickDirty()
					for _, id := range scanDirty(m) {
						if rng.Intn(2) == 0 && m.Versions(id) > m.Versions(dep) {
							dep = id // favour a page with older versions to fall back on
						}
					}
					if ok1 && ok2 && dep != pre {
						m.AddDep(Dep{Prereq: pre, PrereqLSN: m.PageLSN(pre), Dependent: dep, DepLSN: m.PageLSN(dep)})
					}
				case k < 96:
					var want model.Var
					for _, id := range scanDirty(m) {
						if (mv && m.CanFlushBest(id)) || (!mv && m.CanFlush(id)) {
							want = id
							break
						}
					}
					installed = installed[:0]
					flushed := m.FlushFirst
					if mv {
						flushed = m.FlushFirstBest
					}
					if ok := flushed(); ok != (want != "") {
						t.Fatalf("%s: flush-first = %v, reference pick %q", name, ok, want)
					}
					if want != "" && (len(installed) != 1 || installed[0] != want) {
						t.Fatalf("%s: flush-first installed %v, reference order picks %q", name, installed, want)
					}
				case k < 98:
					if mv {
						_ = m.FlushAllBest()
					} else {
						_ = m.FlushAll() // may stop on a dependency cycle
					}
				default:
					m.Crash()
					lg.Crash()
				}
				checkDirtySet(t, m, name)
			}
		}
		t.Logf("mv=%v: %d partial installs", mv, steals)
		if mv && steals < 20 {
			t.Errorf("only %d partial (older-version) installs over 20 seeds: the model never leaves a flushed page dirty", steals)
		}
	}
}

// allDirty returns a manager with n dirty pages. The log starts 2 000
// records in, so every LSN the scaling gate formats has four digits
// whatever n is.
func allDirty(n int) (*Manager, *wal.Manager) {
	lg := wal.NewManager()
	m := NewManager(storage.NewStore(), lg)
	for i := 0; i < 2000+n; i++ {
		id := model.Var(fmt.Sprintf("p%04d", i-2000))
		r := lg.Append(model.AssignConst(model.OpID(i+1), id, "v"), 1)
		if i >= 2000 {
			m.ApplyWrite(id, "v", r.LSN)
		}
	}
	lg.Flush()
	return m, lg
}

// flushFirstAndRedirty installs the first dirty page and dirties it
// again, so the dirty count stays where allDirty put it.
func flushFirstAndRedirty(m *Manager, lsn core.LSN) {
	first := m.dirty[0]
	if !m.FlushFirst() {
		panic("cache: nothing flushed")
	}
	m.ApplyWrite(first, "v", lsn)
}

// TestFlushFirstIndependentOfDirtyCount is the scaling gate: choosing
// and installing the first eligible page allocates the same with 16
// dirty pages as with 1 024. Collecting and sorting the dirty set per
// flush grows with it.
func TestFlushFirstIndependentOfDirtyCount(t *testing.T) {
	allocs := func(n int) float64 {
		m, lg := allDirty(n)
		return testing.AllocsPerRun(50, func() { flushFirstAndRedirty(m, lg.StableLSN()) })
	}
	few, many := allocs(16), allocs(1024)
	if few != many {
		t.Errorf("flush-first allocates %.0f times over 16 dirty pages and %.0f over 1024: it scales with the dirty set", few, many)
	}
}

// BenchmarkFlushOne times what a page-at-a-time method's FlushOne does
// (Manager.FlushFirst) over 1 024 dirty pages, re-dirtying the installed
// page each round (ROADMAP: cache.flushone_us_per_call ≤ 5).
func BenchmarkFlushOne(b *testing.B) {
	m, lg := allDirty(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flushFirstAndRedirty(m, lg.StableLSN())
	}
}
