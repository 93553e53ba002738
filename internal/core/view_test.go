package core

import (
	"fmt"
	"testing"

	"redotheory/internal/model"
)

// viewFixtureLog builds a small log mixing blind writes, read-modify-
// write chains, and multi-variable operations, with wire sizes attached
// the way the log manager does.
func viewFixtureLog() *Log {
	l := NewLog()
	mk := func(id model.OpID, reads, writes []model.Var) {
		r := l.Append(model.ReadWrite(id, fmt.Sprintf("op%d", id), reads, writes))
		r.SetSizeBytes(int(id) * 10)
	}
	mk(1, nil, []model.Var{"x"})
	mk(2, []model.Var{"x"}, []model.Var{"x", "y"})
	mk(3, []model.Var{"y", "x"}, []model.Var{"z"})
	mk(4, nil, []model.Var{"w", "y"})
	mk(5, []model.Var{"z", "w"}, []model.Var{"x"})
	return l
}

// TestLogViewAlignment: every record view's Reads and Writes are the
// record's Op.Reads()/Op.Writes() interned index-for-index — the
// invariant the dense replay engines rely on when they pair view ids
// with the operation's variable slices.
func TestLogViewAlignment(t *testing.T) {
	l := viewFixtureLog()
	checkAligned(t, NewLogView(l), l.Records())
}

// checkAligned checks the alignment invariant on a view of recs.
func checkAligned(t *testing.T, lv *LogView, recs []*Record) {
	t.Helper()
	if len(lv.Views) != len(recs) {
		t.Fatalf("view has %d records, log has %d", len(lv.Views), len(recs))
	}
	for i, r := range recs {
		v := &lv.Views[i]
		if v.Rec != r {
			t.Fatalf("view %d points at record %v, want %v", i, v.Rec, r)
		}
		reads, writes := r.Op.Reads(), r.Op.Writes()
		if len(v.Reads()) != len(reads) || len(v.Writes()) != len(writes) {
			t.Fatalf("view %d: %d reads / %d writes, op has %d / %d",
				i, len(v.Reads()), len(v.Writes()), len(reads), len(writes))
		}
		for k, id := range v.Reads() {
			if got := lv.In.Var(id); got != reads[k] {
				t.Errorf("view %d read %d: id %d resolves to %q, op reads %q", i, k, id, got, reads[k])
			}
		}
		for k, id := range v.Writes() {
			if got := lv.In.Var(id); got != writes[k] {
				t.Errorf("view %d write %d: id %d resolves to %q, op writes %q", i, k, id, got, writes[k])
			}
		}
	}
}

// TestPrefixSharesView: a prefix's view is the full log's view cut to
// its records — the same record views, and ids resolving to the same
// variables — and appending to either log afterwards changes neither
// the other's view nor a view already handed out.
func TestPrefixSharesView(t *testing.T) {
	l := viewFixtureLog()
	full := NewLogView(l)
	p := l.Prefix(3)
	vp := NewLogView(p)
	if len(vp.Views) != 3 || vp.In.Len() != 3 {
		t.Fatalf("prefix view has %d records and %d ids, want 3 and 3 (x, y, z)", len(vp.Views), vp.In.Len())
	}
	if &vp.Views[0] != &full.Views[0] {
		t.Error("the prefix copied the record views instead of sharing them")
	}
	if _, ok := vp.In.Lookup("w"); ok {
		t.Error("prefix interner reports w, first named by record 4 past the cut")
	}
	// Each log mints a fresh variable after the cut; their ids collide
	// numerically but resolve within their own log only.
	l.Append(model.ReadWrite(6, "op6", nil, []model.Var{"q"}))
	p.Append(model.ReadWrite(7, "op7", nil, []model.Var{"r"}))
	lq, pr := NewLogView(l), NewLogView(p)
	if got := lq.In.Var(lq.Views[5].Writes()[0]); got != "q" {
		t.Errorf("full log's new record resolves to %q, want q", got)
	}
	if got := pr.In.Var(pr.Views[3].Writes()[0]); got != "r" {
		t.Errorf("prefix's new record resolves to %q, want r", got)
	}
	if _, ok := pr.In.Lookup("w"); ok {
		t.Error("prefix sees w after its own append")
	}
	checkAligned(t, lq, l.Records())
	checkAligned(t, pr, p.Records())
	checkAligned(t, full, l.Records()[:5])
	checkAligned(t, vp, l.Records()[:3])
	if len(full.Views) != 5 || full.In.Len() != 4 || len(vp.Views) != 3 || vp.In.Len() != 3 {
		t.Errorf("views handed out before the appends changed: %d/%d records, %d/%d ids",
			len(full.Views), len(vp.Views), full.In.Len(), vp.In.Len())
	}
	if _, ok := full.In.Lookup("q"); ok {
		t.Error("a view handed out before the append reports the appended variable")
	}
}

// TestRecordSizeBytes: the append-time cache is authoritative and
// parse-free; decoded legacy records (labels only, never sealed) fall
// back to parsing the "bytes" label per call; absent both, zero.
func TestRecordSizeBytes(t *testing.T) {
	sealed := &Record{Labels: map[string]string{"bytes": "999"}}
	sealed.SetSizeBytes(42)
	if got := sealed.SizeBytes(); got != 42 {
		t.Errorf("sealed record: SizeBytes = %d, want the cached 42 over the label's 999", got)
	}

	legacy := &Record{Labels: map[string]string{"bytes": "17"}}
	if got := legacy.SizeBytes(); got != 17 {
		t.Errorf("legacy record: SizeBytes = %d, want 17 parsed from the label", got)
	}
	// Parsing is per-call, never cached: a label rewrite is visible.
	legacy.Labels["bytes"] = "23"
	if got := legacy.SizeBytes(); got != 23 {
		t.Errorf("legacy record after label rewrite: SizeBytes = %d, want 23", got)
	}

	bare := &Record{}
	if got := bare.SizeBytes(); got != 0 {
		t.Errorf("bare record: SizeBytes = %d, want 0", got)
	}
	garbled := &Record{Labels: map[string]string{"bytes": "not-a-number"}}
	if got := garbled.SizeBytes(); got != 0 {
		t.Errorf("garbled label: SizeBytes = %d, want 0", got)
	}

	clamped := &Record{}
	clamped.SetSizeBytes(-5)
	if got := clamped.SizeBytes(); got != 0 {
		t.Errorf("negative size: SizeBytes = %d, want clamped 0", got)
	}
}
