package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind classifies a registered metric.
type Kind string

// Metric kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Label is one key=value dimension of a metric series.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Opts names a metric series: a Prometheus-style base name, optional help
// text, and optional labels distinguishing series that share the name (e.g.
// query latency per ranking metric).
type Opts struct {
	Name   string
	Help   string
	Labels []Label
}

// seriesID is the canonical identity: name plus sorted labels.
func (o Opts) seriesID() string {
	if len(o.Labels) == 0 {
		return o.Name
	}
	return o.Name + labelString(o.Labels, "")
}

// labelString renders {k="v",...} with labels sorted by key; extra, when
// non-empty, is appended as a pre-rendered label (the histogram le bound).
func labelString(labels []Label, extra string) string {
	if len(labels) == 0 && extra == "" {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	if extra != "" {
		if len(ls) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
	}
	b.WriteByte('}')
	return b.String()
}

// entry is one registered series.
type entry struct {
	opts Opts
	kind Kind

	counter   *Counter
	gauge     *Gauge
	valueFn   func() float64 // CounterFunc / GaugeFunc callback
	histogram *Histogram
}

// Registry is a named collection of metrics. Registration methods are
// get-or-create: asking for an existing (name, labels) series returns the
// already-registered instrument, so hot paths may re-resolve by name without
// duplicating state. Registering the same series as a different kind panics
// — that is a programming error, not runtime input.
//
// The zero value is not usable; create registries with NewRegistry.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]*entry
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*entry)}
}

// lookup returns the existing entry for id, checking the kind.
func (r *Registry) lookup(id string, kind Kind, o Opts) *entry {
	e := r.metrics[id]
	if e == nil {
		return nil
	}
	if e.kind != kind {
		panic(fmt.Sprintf("obs: metric %s already registered as %s, requested as %s", id, e.kind, kind))
	}
	return e
}

// register get-or-creates the entry for o with the given kind, checking the
// name against the series scheme and invoking create only when absent.
func (r *Registry) register(o Opts, kind Kind, create func() *entry) *entry {
	id := o.seriesID()
	r.mu.RLock()
	e := r.lookup(id, kind, o)
	r.mu.RUnlock()
	if e != nil {
		return e
	}
	if problem := checkSeriesName(o.Name, kind); problem != "" {
		panic(fmt.Sprintf("obs: invalid %s name %q: %s", kind, o.Name, problem))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.lookup(id, kind, o); e != nil {
		return e
	}
	e = create()
	e.opts = o
	e.kind = kind
	r.metrics[id] = e
	return e
}

// Counter get-or-creates a counter series.
func (r *Registry) Counter(o Opts) *Counter {
	return r.register(o, KindCounter, func() *entry {
		return &entry{counter: &Counter{}}
	}).counter
}

// Gauge get-or-creates a gauge series.
func (r *Registry) Gauge(o Opts) *Gauge {
	return r.register(o, KindGauge, func() *entry {
		return &entry{gauge: &Gauge{}}
	}).gauge
}

// CounterFunc registers a counter whose value is read from fn at snapshot
// time — for monotone counts already maintained elsewhere (e.g. collector
// ingestion stats) that should appear in the exposition without double
// bookkeeping.
func (r *Registry) CounterFunc(o Opts, fn func() float64) {
	r.register(o, KindCounter, func() *entry {
		return &entry{valueFn: fn}
	})
}

// GaugeFunc registers a gauge computed by fn at snapshot time (e.g. epoch
// age, goroutine counts).
func (r *Registry) GaugeFunc(o Opts, fn func() float64) {
	r.register(o, KindGauge, func() *entry {
		return &entry{valueFn: fn}
	})
}

// Histogram get-or-creates a histogram series with the given bucket bounds
// (LatencyBuckets() when nil). The bounds are fixed by whichever call
// registers the series first.
func (r *Registry) Histogram(o Opts, bounds []float64) *Histogram {
	return r.register(o, KindHistogram, func() *entry {
		if bounds == nil {
			bounds = LatencyBuckets()
		}
		return &entry{histogram: NewHistogram(bounds)}
	}).histogram
}

// MetricSnapshot is one series frozen at snapshot time.
type MetricSnapshot struct {
	Name      string             `json:"name"`
	Labels    []Label            `json:"labels,omitempty"`
	Kind      Kind               `json:"kind"`
	Help      string             `json:"help,omitempty"`
	Value     float64            `json:"value"`
	Histogram *HistogramSnapshot `json:"histogram,omitempty"`
}

// Series renders the full series identity (name plus labels).
func (m MetricSnapshot) Series() string { return m.Name + labelString(m.Labels, "") }

// Snapshot freezes every registered series, sorted by series identity. The
// result is immutable — safe to hand across goroutines or serialize.
func (r *Registry) Snapshot() []MetricSnapshot {
	r.mu.RLock()
	entries := make([]*entry, 0, len(r.metrics))
	for _, e := range r.metrics {
		entries = append(entries, e)
	}
	r.mu.RUnlock()

	out := make([]MetricSnapshot, 0, len(entries))
	for _, e := range entries {
		m := MetricSnapshot{
			Name:   e.opts.Name,
			Labels: append([]Label(nil), e.opts.Labels...),
			Kind:   e.kind,
			Help:   e.opts.Help,
		}
		switch {
		case e.counter != nil:
			m.Value = float64(e.counter.Value())
		case e.gauge != nil:
			m.Value = e.gauge.Value()
		case e.valueFn != nil:
			m.Value = e.valueFn()
		case e.histogram != nil:
			h := e.histogram.Snapshot()
			m.Histogram = &h
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Series() < out[j].Series() })
	return out
}

// FindHistogram returns the snapshot of the histogram series with the given
// base name, merging all labeled series under it (e.g. per-metric query
// latencies combined into one distribution). ok is false when no such
// histogram exists or layouts conflict.
func (r *Registry) FindHistogram(name string) (HistogramSnapshot, bool) {
	var merged HistogramSnapshot
	found := false
	for _, m := range r.Snapshot() {
		if m.Name != name || m.Histogram == nil {
			continue
		}
		if !found {
			merged = *m.Histogram
			found = true
			continue
		}
		next, err := merged.Merge(*m.Histogram)
		if err != nil {
			return HistogramSnapshot{}, false
		}
		merged = next
	}
	return merged, found
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers once per base name, then one
// line per series, histograms expanded into cumulative _bucket/_sum/_count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	seenHeader := make(map[string]bool)
	for _, m := range snap {
		if !seenHeader[m.Name] {
			seenHeader[m.Name] = true
			if m.Help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.Name, m.Help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.Name, m.Kind); err != nil {
				return err
			}
		}
		if m.Histogram == nil {
			if _, err := fmt.Fprintf(w, "%s%s %s\n", m.Name, labelString(m.Labels, ""), formatValue(m.Value)); err != nil {
				return err
			}
			continue
		}
		h := m.Histogram
		var cum uint64
		for i, c := range h.Counts {
			cum += c
			le := "+Inf"
			if i < len(h.Bounds) {
				le = formatValue(h.Bounds[i])
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", m.Name, labelString(m.Labels, `le="`+le+`"`), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", m.Name, labelString(m.Labels, ""), formatValue(h.Sum)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", m.Name, labelString(m.Labels, ""), h.Count); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the snapshot as a JSON array of series.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(r.Snapshot())
}

// formatValue renders a float the way Prometheus clients do: integral values
// without an exponent, everything else in shortest form.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// unitSuffixes are the unit suffixes the series-name scheme accepts for
// measured quantities. Histograms must use one (their _bucket/_sum/_count
// expansions hang off the base name); gauges may be dimensionless counts
// (intsched_probe_streams) or versions (intsched_collector_epoch).
var unitSuffixes = []string{"_seconds", "_bytes", "_ratio", "_packets"}

// checkSeriesName applies the series-name scheme to a name about to be
// registered as kind and returns what is wrong with it, "" when nothing is.
// Names are intsched_<snake_case> — lowercase letters, digits and single
// underscores, a subset of the Prometheus grammar. Counters end in _total,
// histograms in a unit suffix, gauges never in _total, and no name ends in
// _bucket, _sum or _count, which histogram exposition appends. Checking at
// registration covers names built at run time as well as literals, and keeps
// the daemon's /metrics and any sim-side series joinable.
func checkSeriesName(name string, kind Kind) string {
	rest, ok := strings.CutPrefix(name, "intsched_")
	if !ok || rest == "" {
		return "names are intsched_<snake_case>"
	}
	for _, part := range strings.Split(rest, "_") {
		if part == "" {
			return "leading, trailing or double underscore"
		}
		for _, r := range part {
			if (r < 'a' || r > 'z') && (r < '0' || r > '9') {
				return "only lowercase letters, digits and single underscores are allowed"
			}
		}
	}
	hasSuffix := func(suffixes ...string) bool {
		for _, s := range suffixes {
			if strings.HasSuffix(name, s) {
				return true
			}
		}
		return false
	}
	switch {
	case hasSuffix("_bucket", "_sum", "_count"):
		return "_bucket, _sum and _count are reserved for histogram exposition"
	case kind == KindCounter && !hasSuffix("_total"):
		return "a counter must end in _total"
	case kind == KindGauge && hasSuffix("_total"):
		return "_total marks counters, not gauges"
	case kind == KindHistogram && !hasSuffix(unitSuffixes...):
		return "a histogram must end in a unit suffix (" + strings.Join(unitSuffixes, ", ") + ")"
	}
	return ""
}
