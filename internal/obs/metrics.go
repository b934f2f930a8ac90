package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// MetricType is the Prometheus exposition type of a metric family.
type MetricType string

// The exposition types the registry supports.
const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// Registry holds metric families and renders the Prometheus text
// exposition (format 0.0.4) without any client library, keeping the
// module stdlib-only. Families are get-or-create: registering the same
// name twice returns the existing family, and a name registered under
// two different types or label sets panics (a wiring bug that must not
// ship).
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// family is one named metric with its labeled series.
type family struct {
	name    string
	help    string
	typ     MetricType
	labels  []string
	buckets []float64 // histograms only

	mu     sync.Mutex
	series map[string]*series
	order  []string // series keys in first-observation order

	fn func() float64 // callback-backed single unlabeled series
}

// series is one label-value combination of a family.
type series struct {
	labelValues []string
	value       float64 // counter / gauge

	count        int64 // histogram
	sum          float64
	bucketCounts []int64 // parallel to family.buckets, non-cumulative
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup returns the family for name, creating it on first use and
// panicking when a second registration disagrees on type or labels.
func (r *Registry) lookup(name, help string, typ MetricType, buckets []float64, labels []string) *family {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		f = r.families[name]
		if f == nil {
			f = &family{
				name:    name,
				help:    help,
				typ:     typ,
				labels:  append([]string(nil), labels...),
				buckets: append([]float64(nil), buckets...),
				series:  make(map[string]*series),
			}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.typ != typ || len(f.labels) != len(labels) {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s with %d labels (was %s with %d)",
			name, typ, len(labels), f.typ, len(f.labels)))
	}
	return f
}

// get returns the series for the given label values, creating it on
// first observation.
func (f *family) get(labelValues []string) *series {
	if len(labelValues) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q observed with %d label values, want %d",
			f.name, len(labelValues), len(f.labels)))
	}
	key := strings.Join(labelValues, "\x00")
	s := f.series[key]
	if s == nil {
		s = &series{labelValues: append([]string(nil), labelValues...)}
		if f.typ == TypeHistogram {
			s.bucketCounts = make([]int64, len(f.buckets))
		}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Counter is a monotonically increasing metric family.
type Counter struct{ f *family }

// Counter registers (or returns) a counter family.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return &Counter{r.lookup(name, help, TypeCounter, nil, labels)}
}

// Add increments the series for labelValues by v (v must be >= 0).
func (c *Counter) Add(v float64, labelValues ...string) {
	c.f.mu.Lock()
	c.f.get(labelValues).value += v
	c.f.mu.Unlock()
}

// Inc adds 1.
func (c *Counter) Inc(labelValues ...string) { c.Add(1, labelValues...) }

// Value returns the current value of one series (0 if never observed).
func (c *Counter) Value(labelValues ...string) float64 {
	c.f.mu.Lock()
	defer c.f.mu.Unlock()
	return c.f.get(labelValues).value
}

// Gauge is a set-to-current-value metric family.
type Gauge struct{ f *family }

// Gauge registers (or returns) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return &Gauge{r.lookup(name, help, TypeGauge, nil, labels)}
}

// Set stores v on the series for labelValues.
func (g *Gauge) Set(v float64, labelValues ...string) {
	g.f.mu.Lock()
	g.f.get(labelValues).value = v
	g.f.mu.Unlock()
}

// Histogram is a fixed-bucket histogram family. Buckets are upper
// bounds in increasing order; the implicit +Inf bucket is always
// appended in the exposition.
type Histogram struct{ f *family }

// Histogram registers (or returns) a histogram family with the given
// bucket upper bounds (sorted ascending; an empty slice means only the
// +Inf bucket).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	return &Histogram{r.lookup(name, help, TypeHistogram, buckets, labels)}
}

// Observe records v on the series for labelValues.
func (h *Histogram) Observe(v float64, labelValues ...string) {
	h.f.mu.Lock()
	s := h.f.get(labelValues)
	s.count++
	s.sum += v
	for i, ub := range h.f.buckets {
		if v <= ub {
			s.bucketCounts[i]++
			break
		}
	}
	h.f.mu.Unlock()
}

// Count returns the observation count of one series.
func (h *Histogram) Count(labelValues ...string) int64 {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	return h.f.get(labelValues).count
}

// Func registers a callback-backed metric: one unlabeled series whose
// value is read at exposition time. typ must be TypeCounter or
// TypeGauge. It is how live values (queue depth, cache bytes, …) join
// the exposition without double bookkeeping.
func (r *Registry) Func(name, help string, typ MetricType, fn func() float64) {
	if typ != TypeCounter && typ != TypeGauge {
		panic(fmt.Sprintf("obs: Func metric %q must be counter or gauge, got %s", name, typ))
	}
	f := r.lookup(name, help, typ, nil, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// ExpBuckets returns count upper bounds start, start·factor,
// start·factor², … — the standard exponential histogram layout.
func ExpBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, count >= 1")
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// Shared bucket layouts, so the same quantity is always histogrammed
// the same way and dashboards can be copy-pasted between metrics.
var (
	// DurationBuckets spans 1ms…~65s, the request/stage latency range.
	DurationBuckets = ExpBuckets(0.001, 2, 17)
	// CountBuckets spans 1…~65k doubling, for iteration/level counts.
	CountBuckets = ExpBuckets(1, 2, 17)
	// SizeBuckets spans 64…~4.3e9 with factor 4, for nnz and byte sizes.
	SizeBuckets = ExpBuckets(64, 4, 14)
)

// WriteText renders the full text exposition, families sorted by name
// and series in first-observation order. Histograms emit cumulative
// _bucket lines (ending at le="+Inf"), then _sum and _count.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.RUnlock()

	for _, f := range fams {
		f.write(w)
	}
}

func (f *family) write(w io.Writer) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fn == nil && len(f.order) == 0 {
		return // nothing observed yet; skip the family entirely
	}
	if f.help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
	if f.fn != nil {
		fmt.Fprintf(w, "%s %s\n", f.name, formatValue(f.fn()))
		return
	}
	for _, key := range f.order {
		s := f.series[key]
		switch f.typ {
		case TypeHistogram:
			var cum int64
			for i, ub := range f.buckets {
				cum += s.bucketCounts[i]
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labels, s.labelValues, "le", formatBucket(ub)), cum)
			}
			fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labels, s.labelValues, "le", "+Inf"), s.count)
			fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(f.labels, s.labelValues, "", ""), formatValue(s.sum))
			fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(f.labels, s.labelValues, "", ""), s.count)
		default:
			fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, s.labelValues, "", ""), formatValue(s.value))
		}
	}
}

// labelString renders {k="v",…}, appending one extra pair (the le
// bound) when extraKey is non-empty. No labels yields the empty string.
func labelString(names, values []string, extraKey, extraValue string) string {
	if len(names) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(extraValue)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1<<53:
		// Counts and byte gauges print as integers, never 1.5e+06.
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// formatBucket renders a le bound; integral bounds print without an
// exponent so the output stays human-scannable.
func formatBucket(ub float64) string {
	return strconv.FormatFloat(ub, 'g', -1, 64)
}
