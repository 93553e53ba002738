package wal

import (
	"strings"
	"testing"

	"redotheory/internal/core"
	"redotheory/internal/model"
)

func TestRepairTailCleanCrash(t *testing.T) {
	m := NewManager()
	m.Append(model.Incr(1, "x", 1), 1)
	m.Append(model.Incr(2, "x", 1), 1)
	m.Flush()
	m.Append(model.Incr(3, "x", 1), 1) // volatile, lost at crash
	m.Crash()
	rep := m.RepairTail()
	if rep.damaged() {
		t.Fatalf("clean crash reported damage: %+v", rep)
	}
	if rep.ValidThrough != 2 {
		t.Errorf("ValidThrough = %d, want 2", rep.ValidThrough)
	}
}

func TestRepairTornTail(t *testing.T) {
	m := NewManager()
	for i := 1; i <= 4; i++ {
		m.Append(model.Incr(model.OpID(i), "x", 1), 1)
	}
	m.Flush()
	m.AppendCheckpoint(0) // AtLSN 5, stranded once the tail tears
	m.Crash()
	if n := m.TearStableTail(2); n != 2 {
		t.Fatalf("tore %d records, want 2", n)
	}
	rep := m.RepairTail()
	if rep.TornRecords != 2 || rep.ValidThrough != 2 {
		t.Fatalf("repair = %+v, want 2 torn through 2", rep)
	}
	if rep.CheckpointsDropped != 1 {
		t.Errorf("CheckpointsDropped = %d, want 1 (stranded at LSN 5)", rep.CheckpointsDropped)
	}
	if _, ok := m.StableCheckpoint(); ok {
		t.Error("stranded checkpoint still reported stable")
	}
	if m.StableLSN() != 2 {
		t.Errorf("StableLSN = %d after repair, want 2", m.StableLSN())
	}
	if err := m.RequireStable(2); err != nil {
		t.Errorf("surviving record not stable after repair: %v", err)
	}
	// Idempotent: a second pass (crash during degraded recovery) is clean.
	if again := m.RepairTail(); again.damaged() {
		t.Fatalf("second repair found damage: %+v", again)
	}
}

func TestRepairCorruptRecord(t *testing.T) {
	m := NewManager()
	for i := 1; i <= 5; i++ {
		m.Append(model.Incr(model.OpID(i), "x", 1), 1)
	}
	m.Flush()
	m.Crash()
	if !m.CorruptRecord(3) {
		t.Fatal("CorruptRecord(3) found no record")
	}
	if err := m.verifyRecord(3); err == nil {
		t.Fatal("corrupt record verified clean")
	} else if !strings.Contains(err.Error(), "record 3") {
		t.Errorf("error = %v", err)
	}
	rep := m.RepairTail()
	if rep.CorruptLSN != 3 || rep.ValidThrough != 2 {
		t.Fatalf("repair = %+v, want corrupt at 3, valid through 2", rep)
	}
	// Records 4 and 5 were individually valid but untrustworthy past the
	// rot: dropped, and counted as detectably lost work.
	if rep.DroppedValid != 2 {
		t.Errorf("DroppedValid = %d, want 2", rep.DroppedValid)
	}
	if m.Log().MaxLSN() != 2 || m.StableLSN() != 2 {
		t.Errorf("log ends at %d stable %d, want 2/2", m.Log().MaxLSN(), m.StableLSN())
	}
	if again := m.RepairTail(); again.damaged() {
		t.Fatalf("second repair found damage: %+v", again)
	}
}

func TestRepairAfterTruncation(t *testing.T) {
	m := NewManager()
	m.Append(model.Incr(1, "x", 1), 1)
	m.Append(model.Incr(2, "x", 1), 1)
	m.Flush()
	m.AppendCheckpoint(0) // AtLSN 3
	if _, err := m.TruncateBefore(3); err != nil {
		t.Fatal(err)
	}
	// Fully truncated log: absence of records 1–2 is legitimate, not a tear.
	m.Crash()
	if rep := m.RepairTail(); rep.damaged() {
		t.Fatalf("truncated log reported damage: %+v", rep)
	}
	// New records past the truncation point still validate and tear-detect.
	m.Append(model.Incr(3, "x", 1), 1)
	m.Append(model.Incr(4, "x", 1), 1)
	m.Flush()
	m.Crash()
	m.TearStableTail(1)
	rep := m.RepairTail()
	if rep.TornRecords != 1 || rep.ValidThrough != 3 {
		t.Fatalf("repair = %+v, want 1 torn through 3", rep)
	}
}

// TestTruncateBeforeErrors is the table-driven sweep of TruncateBefore's
// refusal paths.
func TestTruncateBeforeErrors(t *testing.T) {
	cases := []struct {
		name    string
		setup   func() *Manager
		before  uint64
		wantErr string
	}{
		{
			name: "into the volatile tail",
			setup: func() *Manager {
				m := NewManager()
				m.Append(model.Incr(1, "x", 1), 1)
				m.Append(model.Incr(2, "x", 1), 1)
				m.AppendCheckpoint(0)              // forces; AtLSN 3
				m.Append(model.Incr(3, "x", 1), 1) // volatile
				return m
			},
			before:  4,
			wantErr: "stable only through",
		},
		{
			name: "no stable checkpoint",
			setup: func() *Manager {
				m := NewManager()
				m.Append(model.Incr(1, "x", 1), 1)
				m.Flush()
				return m
			},
			before:  2,
			wantErr: "without a stable checkpoint",
		},
		{
			name: "past the newest stable checkpoint",
			setup: func() *Manager {
				m := NewManager()
				m.Append(model.Incr(1, "x", 1), 1)
				m.Append(model.Incr(2, "x", 1), 1)
				m.AppendCheckpoint(0) // AtLSN 3
				m.Append(model.Incr(3, "x", 1), 1)
				m.Append(model.Incr(4, "x", 1), 1)
				m.Flush()
				return m
			},
			before:  4,
			wantErr: "newest stable checkpoint",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.setup()
			n, err := m.TruncateBefore(core.LSN(tc.before))
			if err == nil {
				t.Fatalf("TruncateBefore(%d) succeeded, dropped %d", tc.before, n)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %q, want substring %q", err, tc.wantErr)
			}
			if m.Log().Len() == 0 {
				t.Error("refused truncation still dropped records")
			}
		})
	}
}

// TestTruncateThenCrashStable covers the TruncateBefore → Crash
// interplay: after truncation drops the prefix and a crash drops the
// volatile tail, every surviving record must still satisfy RequireStable
// and the stable checkpoint must still be found.
func TestTruncateThenCrashStable(t *testing.T) {
	m := NewManager()
	m.Append(model.Incr(1, "x", 1), 1)
	m.Append(model.Incr(2, "x", 1), 1)
	m.AppendCheckpoint(0) // AtLSN 3, forces through 2
	if n, err := m.TruncateBefore(3); err != nil || n != 2 {
		t.Fatalf("truncate = %d, %v", n, err)
	}
	m.Append(model.Incr(3, "x", 1), 1)
	m.Append(model.Incr(4, "x", 1), 1)
	m.FlushTo(3)
	m.Append(model.Incr(5, "x", 1), 1)
	m.Crash() // loses records 4 and 5

	if got := m.Log().MaxLSN(); got != 3 {
		t.Fatalf("surviving log ends at %d, want 3", got)
	}
	if err := m.RequireStable(3); err != nil {
		t.Errorf("surviving record 3 not stable: %v", err)
	}
	if err := m.RequireStable(4); err == nil {
		t.Error("lost record 4 reported stable")
	}
	if _, ok := m.StableCheckpoint(); !ok {
		t.Error("stable checkpoint lost across truncate+crash")
	}
	if rep := m.RepairTail(); rep.damaged() {
		t.Errorf("truncate+crash log reported damage: %+v", rep)
	}
}
