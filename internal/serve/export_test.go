package serve

import "redotheory/internal/core"

// Hooks for the external tests (package serve_test, which builds its
// crash fixtures with the sim harness): the per-component sweep state
// and one sweep step.

// Components is the number of replay components.
func (e *Engine) Components() int { return len(e.comps) }

// ComponentState reports component ci's completion count, its sweep
// cursor and its record count.
func (e *Engine) ComponentState(ci int) (redone int64, cursor, n int) {
	cs := &e.comps[ci]
	return cs.redone.Load(), cs.cursor, len(e.plan.Components[ci].Idx)
}

// Step is one background-sweep step (step).
func (e *Engine) Step(i int, seen []int32, buf *core.ReplayBuf) { e.step(i, seen, buf) }

// FullyRecovered reports whether every component has completed.
func (e *Engine) FullyRecovered() bool { return e.fullyRecovered() }

// View is the log view the engine plans and gates by.
func (e *Engine) View() *core.LogView { return e.lv }
