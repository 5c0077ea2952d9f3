package obs

import (
	"encoding/json"
	"io"
)

// MetricsSchema is the schema tag of the machine-readable registry
// export (lrpsim -run ... -json, lrptrace replay -json, lrpbench -json). Bump it on any
// incompatible change so downstream tooling fails loudly.
const MetricsSchema = "lrpmetrics/v1"

// MetricsJSON is the machine-readable registry export.
type MetricsJSON struct {
	Schema  string       `json:"schema"`
	Metrics []MetricJSON `json:"metrics"`
}

// MetricJSON is one instrument's exported value.
type MetricJSON struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Value is the counter count or gauge level; for histograms it is
	// the sample count (the full distribution is under Hist).
	Value int64     `json:"value"`
	Hist  *HistJSON `json:"hist,omitempty"`
}

// HistJSON exports a histogram: only its nonzero buckets, each with its
// value range, so the export stays compact and self-describing.
type HistJSON struct {
	Count   uint64       `json:"count"`
	Sum     uint64       `json:"sum"`
	Buckets []BucketJSON `json:"buckets,omitempty"`
}

// BucketJSON is one nonzero histogram bucket. High is exclusive; 0 means
// unbounded (the top bucket).
type BucketJSON struct {
	Low   uint64 `json:"low"`
	High  uint64 `json:"high"`
	Count uint64 `json:"count"`
}

// Export captures the registry as a MetricsJSON document. The metric
// list is sorted by name (Snapshot's contract) and every field is either
// a struct field or a sorted slice, so marshaling the result is
// deterministic: the same registry state always produces the same bytes.
func (r *Registry) Export() MetricsJSON {
	snap := r.Snapshot()
	doc := MetricsJSON{Schema: MetricsSchema, Metrics: make([]MetricJSON, 0, len(snap))}
	for _, mv := range snap {
		m := MetricJSON{Name: mv.Name, Kind: mv.Kind.String(), Value: mv.Value}
		if mv.Hist != nil {
			h := &HistJSON{Count: mv.Hist.Count, Sum: mv.Hist.Sum}
			for i, n := range mv.Hist.Buckets {
				if n == 0 {
					continue
				}
				low, high := BucketBounds(i)
				h.Buckets = append(h.Buckets, BucketJSON{Low: low, High: high, Count: n})
			}
			m.Hist = h
		}
		doc.Metrics = append(doc.Metrics, m)
	}
	return doc
}

// WriteJSON writes the registry export as indented JSON with a trailing
// newline.
func (r *Registry) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r.Export(), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
