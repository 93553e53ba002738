package core

import (
	"redotheory/internal/dense"
	"redotheory/internal/model"
	"redotheory/internal/obs"
)

// RecoverDense is the redo recovery procedure of Figure 6 running on
// the dense replay representation — the shipped instantiation of Scan:
// the same analysis phase, the same scan, the same redo-test
// invocations, and the same final state as Recover, but the step
// recomputes against an interned, slice-backed state instead of the
// map-backed one, through RecordView.Replay's positional value buffers.
// The map/string API is preserved at the edges: sv.State is read up
// front, mutated only by the final write-back of replayed variables, and
// returned in the Result exactly as Recover would have left it.
//
// By the kernel contract (DESIGN.md §1.1.1) it makes Recover's
// decisions and writes Recover's values; TestDenseRecoverMatchesMapRecover
// holds it to Recover for every method and workload shape.
//
// rec (nil disables telemetry) receives Scan's account under an umbrella
// "recover" span; a top-level recovery begins its own trace, one nested
// inside a supervised attempt joins the attempt's tree.
func RecoverDense(rec *obs.Recorder, sv Survivors) (*Result, error) {
	lv := NewLogView(sv.Log)
	ds := dense.FromState(lv.In, sv.State)
	// ds is private to this recovery and only its value slots are read
	// back (WriteBack), so the presence bits Replay skips are never
	// consulted.
	var buf ReplayBuf
	// touched collects the ids replay wrote (deduplicated via seen) for
	// the final write-back into the map-backed state.
	seen := make([]uint64, (lv.In.Len()+63)/64)
	touched := make([]uint32, 0, 16)

	res := &Result{
		State: sv.State,
		log:   sv.Log,
		// Presized for the worst case (every record admitted): append
		// growth on a 512-record replay costs ~9 reallocations.
		Replayed: make([]model.OpID, 0, sv.Log.Len()),
	}
	span := rec.StartRootSpan(obs.PhaseRecover, "sequential dense recovery")
	defer span.End()
	var err error
	res.Examined, _, err = Scan(rec, sv, true, func(i int, r *Record) (bool, error) {
		v := &lv.Views[i]
		if err := v.Replay(ds, &buf); err != nil {
			return false, err
		}
		res.Replayed = append(res.Replayed, r.Op.ID())
		for _, id := range v.Writes() {
			if seen[id>>6]&(1<<(id&63)) == 0 {
				seen[id>>6] |= 1 << (id & 63)
				touched = append(touched, id)
			}
		}
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	ds.WriteBack(sv.State, touched)
	return res, nil
}
