package obs

// Snapshot is a frozen, JSON-ready view of a Recorder's metrics.
// Snapshots merge (Merge) so per-cell recorders roll up into per-method
// and campaign totals; all derived numbers (percentiles, selectivity)
// are recomputed from the merged primitives.
type Snapshot struct {
	Counters  map[string]int64        `json:"counters,omitempty"`
	Gauges    map[string]int64        `json:"gauges,omitempty"`
	Durations map[string]HistSnapshot `json:"durations,omitempty"`
	Samples   map[string]HistSnapshot `json:"samples,omitempty"`
}

// Snapshot freezes the recorder's metrics. Returns the zero Snapshot for
// a nil recorder. Safe to call concurrently with metric updates (the
// result is then approximate, never corrupt).
func (r *Recorder) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.counters.Range(func(k, v any) bool {
		if s.Counters == nil {
			s.Counters = make(map[string]int64)
		}
		s.Counters[k.(string)] = v.(*Counter).Load()
		return true
	})
	r.gauges.Range(func(k, v any) bool {
		if s.Gauges == nil {
			s.Gauges = make(map[string]int64)
		}
		s.Gauges[k.(string)] = v.(*Gauge).Load()
		return true
	})
	r.durations.Range(func(k, v any) bool {
		if s.Durations == nil {
			s.Durations = make(map[string]HistSnapshot)
		}
		s.Durations[k.(string)] = v.(*Hist).snapshot()
		return true
	})
	r.samples.Range(func(k, v any) bool {
		if s.Samples == nil {
			s.Samples = make(map[string]HistSnapshot)
		}
		s.Samples[k.(string)] = v.(*Hist).snapshot()
		return true
	})
	return s
}

// Merge folds another snapshot into this one: counters add, gauges take
// the other's value when set (last writer wins, matching live gauges),
// histograms merge bucket-wise with percentiles recomputed.
func (s *Snapshot) Merge(o Snapshot) {
	for k, v := range o.Counters {
		if s.Counters == nil {
			s.Counters = make(map[string]int64)
		}
		s.Counters[k] += v
	}
	for k, v := range o.Gauges {
		if s.Gauges == nil {
			s.Gauges = make(map[string]int64)
		}
		s.Gauges[k] = v
	}
	for k, v := range o.Durations {
		if s.Durations == nil {
			s.Durations = make(map[string]HistSnapshot)
		}
		h := s.Durations[k]
		h.Merge(v)
		s.Durations[k] = h
	}
	for k, v := range o.Samples {
		if s.Samples == nil {
			s.Samples = make(map[string]HistSnapshot)
		}
		h := s.Samples[k]
		h.Merge(v)
		s.Samples[k] = h
	}
}

// Counter returns a counter's value, 0 when absent.
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Duration returns a duration histogram, zero when absent.
func (s Snapshot) Duration(name string) HistSnapshot { return s.Durations[name] }

// RedoSelectivity is the fraction of examined records the redo test
// admitted, 0 when nothing was examined.
func (s Snapshot) RedoSelectivity() float64 {
	ex := s.Counter(MRedoExamined)
	if ex == 0 {
		return 0
	}
	return float64(s.Counter(MRedoAdmitted)) / float64(ex)
}
