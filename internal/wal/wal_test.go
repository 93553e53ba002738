package wal

import (
	"slices"
	"testing"

	"redotheory/internal/core"
	"redotheory/internal/model"
)

func TestAppendFlushStable(t *testing.T) {
	m := NewManager()
	m.Append(model.Incr(1, "x", 1), 10)
	m.Append(model.Incr(2, "x", 1), 20)
	if m.StableLSN() != 0 {
		t.Errorf("stable = %d before flush", m.StableLSN())
	}
	if err := m.RequireStable(1); err == nil {
		t.Error("unflushed record reported stable")
	}
	m.Flush()
	if m.StableLSN() != 2 {
		t.Errorf("stable = %d after flush", m.StableLSN())
	}
	if err := m.RequireStable(2); err != nil {
		t.Error(err)
	}
	if m.BytesTotal() != 30 {
		t.Errorf("bytes = %d", m.BytesTotal())
	}
}

func TestFlushTo(t *testing.T) {
	m := NewManager()
	m.Append(model.Incr(1, "x", 1), 1)
	m.Append(model.Incr(2, "x", 1), 1)
	m.Append(model.Incr(3, "x", 1), 1)
	m.FlushTo(2)
	if m.StableLSN() != 2 {
		t.Errorf("stable = %d", m.StableLSN())
	}
	m.FlushTo(1) // no-op backwards
	if m.StableLSN() != 2 {
		t.Error("FlushTo moved backwards")
	}
	m.FlushTo(99) // clamped
	if m.StableLSN() != 3 {
		t.Errorf("stable = %d", m.StableLSN())
	}
}

func TestStableLogAndCrash(t *testing.T) {
	m := NewManager()
	m.Append(model.Incr(1, "x", 1), 1)
	m.Flush()
	m.Append(model.Incr(2, "x", 1), 1)
	if got := m.StableLog().Len(); got != 1 {
		t.Errorf("stable log len = %d", got)
	}
	survived := m.Crash()
	if survived.Len() != 1 || survived.RecordOf(2) != nil {
		t.Error("crash kept the volatile tail")
	}
	// The manager keeps working after a crash (new epoch).
	m.Append(model.Incr(3, "y", 1), 1)
	if m.Log().Len() != 2 {
		t.Errorf("post-crash log len = %d", m.Log().Len())
	}
}

// TestStableLogSurvivesCrashAndAppend: StableLog shares the live log's
// records instead of copying them, and Crash makes such a prefix the
// live log. A StableLog value taken before the crash — and the full
// pre-crash log with its volatile tail — must still hold exactly the
// old records after the post-crash log is appended to.
func TestStableLogSurvivesCrashAndAppend(t *testing.T) {
	m := NewManager()
	for i := 1; i <= 3; i++ {
		m.Append(model.Incr(model.OpID(i), "x", 1), 1)
	}
	m.Flush()
	m.Append(model.Incr(4, "x", 1), 1)
	m.Append(model.Incr(5, "x", 1), 1)
	full, pre := m.Log(), m.StableLog()
	fullRecs := append([]*core.Record(nil), full.Records()...)

	m.Crash()
	r := m.Append(model.Incr(6, "y", 1), 1)
	m.Flush()

	if r.LSN != 4 {
		t.Errorf("post-crash record got LSN %d, want 4 (the lost tail's LSNs are reissued)", r.LSN)
	}
	if pre.Len() != 3 || pre.RecordOf(6) != nil || pre.NextLSN() != 4 {
		t.Errorf("pre-crash stable log changed: %d records, next LSN %d", pre.Len(), pre.NextLSN())
	}
	if !slices.Equal(pre.Records(), fullRecs[:3]) {
		t.Error("pre-crash stable log records replaced")
	}
	if !slices.Equal(full.Records(), fullRecs) {
		t.Error("post-crash append overwrote the pre-crash log's volatile tail")
	}
	if post := m.StableLog(); post.Len() != 4 || post.Records()[3] != r {
		t.Errorf("post-crash stable log has %d records", post.Len())
	}
}

func TestCheckpoints(t *testing.T) {
	m := NewManager()
	if _, ok := m.StableCheckpoint(); ok {
		t.Error("phantom checkpoint")
	}
	m.Append(model.Incr(1, "x", 1), 1)
	ck := m.AppendCheckpoint("payload-1")
	if ck.AtLSN != 2 {
		t.Errorf("checkpoint AtLSN = %d, want 2", ck.AtLSN)
	}
	got, ok := m.StableCheckpoint()
	if !ok || got.Payload != "payload-1" {
		t.Errorf("stable checkpoint = %+v, %v", got, ok)
	}
	// A later checkpoint supersedes.
	m.Append(model.Incr(2, "x", 1), 1)
	m.AppendCheckpoint("payload-2")
	got, _ = m.StableCheckpoint()
	if got.Payload != "payload-2" {
		t.Errorf("latest checkpoint = %+v", got)
	}
}

func TestCheckpointSurvivesCrashOnlyIfStable(t *testing.T) {
	m := NewManager()
	m.Append(model.Incr(1, "x", 1), 1)
	m.AppendCheckpoint("ck") // forced
	m.Append(model.Incr(2, "x", 1), 1)
	m.Crash()
	if _, ok := m.StableCheckpoint(); !ok {
		t.Error("forced checkpoint lost in crash")
	}
}

func TestForcesCounter(t *testing.T) {
	m := NewManager()
	m.Append(model.Incr(1, "x", 1), 1)
	m.Flush()
	m.Flush() // no work
	if m.Forces != 1 {
		t.Errorf("Forces = %d, want 1", m.Forces)
	}
}
