package wal

import (
	"fmt"
	"strconv"

	"redotheory/internal/core"
	"redotheory/internal/fault"
)

// This file is the log manager's media-fault surface: injection hooks
// that decay the stable log the way a crash reveals (a torn tail, a
// rotted record) and RepairTail, the recovery-side validation that turns
// every such fault into an explicit detection and truncates the log back
// to its last trustworthy record. The write-ahead rule makes the log the
// root of trust for redo; when the log itself lies, recovery's only safe
// move is to shorten it and fall back — losing a suffix detectably
// rather than replaying garbage silently.

// CorruptRecord simulates bit-rot of one stable log record: its stored
// checksum no longer matches its contents. It reports whether the record
// exists in the stable log.
func (m *Manager) CorruptRecord(lsn core.LSN) bool {
	if lsn > m.stableLSN {
		return false
	}
	r := m.log.Records()
	idx := -1
	for i := range r {
		if r[i].LSN == lsn {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	m.sums[lsn] ^= 0x5a5a5a5a
	return true
}

// TearStableTail drops the last k records of the stable log without
// updating the tail anchor, as a torn final write leaves things: the
// anchor still claims the full tail, so RepairTail can tell the records
// are missing rather than never written. It returns how many records
// were actually dropped.
func (m *Manager) TearStableTail(k int) int {
	recs := m.log.Records()
	if k <= 0 || len(recs) == 0 {
		return 0
	}
	if k > len(recs) {
		k = len(recs)
	}
	var newLast core.LSN
	if k < len(recs) {
		newLast = recs[len(recs)-1-k].LSN
	} else {
		newLast = recs[0].LSN - 1
	}
	m.log = m.log.Prefix(newLast)
	return k
}

// verifyRecord recomputes a record's checksum against the one sealed at
// append time, returning a CorruptRecordError on mismatch. Records not
// present in the log verify clean (absence is the tear detector's job,
// not the checksum's).
func (m *Manager) verifyRecord(lsn core.LSN) error {
	r := m.log.RecordOfLSN(lsn)
	if r == nil {
		return nil
	}
	stored, ok := m.sums[lsn]
	if !ok || stored != recordSum(r) {
		return &CorruptRecordError{LSN: lsn}
	}
	return nil
}

// TailRepair reports what RepairTail found and did.
type TailRepair struct {
	// ValidThrough is the LSN of the last trustworthy record; the log now
	// ends there.
	ValidThrough core.LSN
	// TornRecords counts records the tail anchor expected that are
	// missing from the medium.
	TornRecords int
	// CorruptLSN is the first checksum-invalid record (0 when none).
	CorruptLSN core.LSN
	// DroppedValid counts individually-valid records discarded because
	// they sit past the corrupt one — committed work lost detectably.
	DroppedValid int
	// CheckpointsDropped counts checkpoints stranded past ValidThrough.
	CheckpointsDropped int
	// Detections lists every integrity failure found.
	Detections []fault.Detection
}

// damaged reports whether the repair found anything wrong.
func (r TailRepair) damaged() bool { return len(r.Detections) > 0 }

// RepairTail validates the stable log after a crash and repairs it:
// every record is checksummed, the chained tail anchor is compared
// against what is actually present, and on any failure the log is
// truncated to the last trustworthy record, stranded checkpoints are
// dropped, and the anchor is re-sealed. The repaired log satisfies
// RequireStable for every surviving record, and a second call finds
// nothing (repair is idempotent — a crash during degraded recovery just
// runs it again).
func (m *Manager) RepairTail() TailRepair {
	rep := TailRepair{}
	recs := m.log.Records()

	// Per-record checksums, in order; trust nothing past the first bad one.
	corruptIdx := -1
	for i, r := range recs {
		if m.verifyRecord(r.LSN) != nil {
			corruptIdx = i
			rep.CorruptLSN = r.LSN
			rep.Detections = append(rep.Detections, fault.Detection{
				Code:   "corrupt-record",
				Detail: fmt.Sprintf("log record %d fails its checksum", r.LSN),
			})
			break
		}
	}

	maxPresent := m.log.MaxLSN()
	validThrough := maxPresent
	if corruptIdx >= 0 {
		if corruptIdx == 0 {
			validThrough = recs[0].LSN - 1
		} else {
			validThrough = recs[corruptIdx-1].LSN
		}
		for _, r := range recs[corruptIdx+1:] {
			if m.verifyRecord(r.LSN) == nil {
				rep.DroppedValid++
			}
		}
	}

	// Tail anchor vs what the medium actually holds. Records below
	// truncatedBefore are legitimately gone; anything between the last
	// present record and the anchor was torn away.
	if m.anchorLSN >= m.truncatedBefore {
		low := maxPresent
		if low < m.truncatedBefore-1 {
			low = m.truncatedBefore - 1
		}
		if low < m.anchorLSN {
			rep.TornRecords = int(m.anchorLSN - low)
			rep.Detections = append(rep.Detections, fault.Detection{
				Code: "torn-tail",
				Detail: fmt.Sprintf("tail anchor covers through %d but log ends at %d (%d records torn)",
					m.anchorLSN, low, rep.TornRecords),
			})
		}
	}

	// Belt and suspenders: with per-record sums clean and no tear, the
	// chained anchor must reproduce. A mismatch here means the medium
	// lies in a way the per-record sums missed; trust only the
	// checkpoint-covered base.
	if corruptIdx < 0 && rep.TornRecords == 0 && len(recs) > 0 && m.anchorLSN >= recs[0].LSN {
		run := m.chainAt(recs[0].LSN - 1)
		for _, r := range recs {
			if r.LSN > m.anchorLSN {
				break
			}
			run = fault.Sum(
				strconv.FormatUint(run, 16),
				strconv.FormatUint(recordSum(r), 16))
		}
		if run != m.anchorSum {
			validThrough = m.truncatedBefore - 1
			rep.Detections = append(rep.Detections, fault.Detection{
				Code:   "torn-tail",
				Detail: "chained tail anchor mismatch; dropping the uncovered suffix",
			})
		}
	}

	if validThrough < m.truncatedBefore-1 {
		validThrough = m.truncatedBefore - 1
	}
	rep.ValidThrough = validThrough
	if !rep.damaged() {
		return rep
	}

	// Repair: shorten to the trustworthy prefix, re-seal, and drop
	// checkpoints that pointed past it.
	if m.log.MaxLSN() > validThrough {
		m.log = m.log.Prefix(validThrough)
	}
	m.stableLSN = validThrough
	kept := m.checkpoints[:0]
	for _, ck := range m.checkpoints {
		if ck.AtLSN <= validThrough+1 {
			kept = append(kept, ck)
		} else {
			rep.CheckpointsDropped++
		}
	}
	m.checkpoints = kept
	for lsn := range m.sums {
		if lsn > validThrough {
			delete(m.sums, lsn)
			delete(m.chain, lsn)
		}
	}
	m.sealAnchor()
	return rep
}
