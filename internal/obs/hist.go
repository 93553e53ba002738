package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

// histBuckets is the bucket count: bucket 0 holds values ≤ 0, bucket k
// (k ≥ 1) holds values in [2^(k-1), 2^k). 64 buckets cover all of int64.
const histBuckets = 64

// Hist is a fixed power-of-two histogram with atomic buckets: every
// Observe is a handful of atomic operations, so histograms are shared
// across goroutines without locks. Percentiles are approximate (bucket
// lower bound, clamped by the observed min/max), which is plenty for
// phase-time breakdowns and width distributions.
type Hist struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

func newHist() *Hist {
	h := &Hist{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v)) // 1 → 1, 2..3 → 2, 4..7 → 3, …
}

// Observe records one value.
func (h *Hist) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// snapshot freezes the histogram. The loads are not mutually atomic; a
// snapshot taken concurrently with observations is approximate, which is
// the contract for telemetry reads.
func (h *Hist) snapshot() HistSnapshot {
	s := HistSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
	}
	if s.Count > 0 {
		s.Min = h.min.Load()
		s.Max = h.max.Load()
	}
	last := -1
	var raw [histBuckets]int64
	for i := range h.buckets {
		raw[i] = h.buckets[i].Load()
		if raw[i] != 0 {
			last = i
		}
	}
	if last >= 0 {
		s.Buckets = append([]int64(nil), raw[:last+1]...)
	}
	s.refresh()
	return s
}

// HistSnapshot is the JSON-ready frozen form of a Hist. Buckets are
// trailing-trimmed; bucket k covers [2^(k-1), 2^k) with bucket 0 for
// values ≤ 0. P50/P99 are recomputed by refresh after any merge.
type HistSnapshot struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Min     int64   `json:"min,omitempty"`
	Max     int64   `json:"max,omitempty"`
	P50     int64   `json:"p50"`
	P99     int64   `json:"p99"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// Merge folds another snapshot into this one and refreshes percentiles.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	if o.Count == 0 {
		return
	}
	if s.Count == 0 {
		*s = o
		// Copy the bucket slice: adopting o's backing array would let a
		// later Merge into s mutate the donor snapshot in place.
		s.Buckets = append([]int64(nil), o.Buckets...)
		return
	}
	s.Sum += o.Sum
	s.Count += o.Count
	if o.Min < s.Min {
		s.Min = o.Min
	}
	if o.Max > s.Max {
		s.Max = o.Max
	}
	if len(o.Buckets) > len(s.Buckets) {
		s.Buckets = append(s.Buckets, make([]int64, len(o.Buckets)-len(s.Buckets))...)
	}
	for i, n := range o.Buckets {
		s.Buckets[i] += n
	}
	s.refresh()
}

// refresh recomputes P50/P99 from the buckets.
func (s *HistSnapshot) refresh() {
	s.P50 = s.percentile(0.50)
	s.P99 = s.percentile(0.99)
}

// percentile returns the approximate p-th percentile: the lower bound of
// the bucket holding the nearest-rank observation, clamped to the
// observed [Min, Max]. Returns 0 on an empty histogram.
func (s *HistSnapshot) percentile(p float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(p * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, n := range s.Buckets {
		seen += n
		if seen >= rank {
			v := int64(0)
			if i >= 1 {
				v = int64(1) << (i - 1)
			}
			if v < s.Min {
				v = s.Min
			}
			if v > s.Max {
				v = s.Max
			}
			return v
		}
	}
	return s.Max
}

// sanity reports every structural problem with the snapshot — a
// recorder can only produce sane snapshots, so any finding means the
// value came from a corrupt or hand-edited report file. Report.Validate
// runs it over every histogram so cmd/redostats -check fails corrupt
// inputs with a schema error instead of rendering garbage.
func (s *HistSnapshot) sanity() []string {
	var probs []string
	if s.Count < 0 {
		probs = append(probs, fmt.Sprintf("negative observation count %d", s.Count))
	}
	if len(s.Buckets) > histBuckets {
		probs = append(probs, fmt.Sprintf("%d buckets, max %d", len(s.Buckets), histBuckets))
	}
	var total int64
	for i, n := range s.Buckets {
		if n < 0 {
			probs = append(probs, fmt.Sprintf("bucket %d holds negative count %d", i, n))
		}
		total += n
	}
	if s.Count > 0 {
		if len(s.Buckets) == 0 {
			probs = append(probs, fmt.Sprintf("count %d but no buckets", s.Count))
		} else if total != s.Count {
			probs = append(probs, fmt.Sprintf("buckets sum to %d, count says %d", total, s.Count))
		}
		if s.Min > s.Max {
			probs = append(probs, fmt.Sprintf("min %d exceeds max %d", s.Min, s.Max))
		}
	}
	return probs
}
