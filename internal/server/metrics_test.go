package server

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// expoSample is one parsed sample line of the Prometheus text
// exposition format 0.0.4.
type expoSample struct {
	name   string
	labels map[string]string
	value  float64
}

var (
	expoNameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	expoLabelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// parseExposition is a strict parser for the subset of the text
// exposition format the server emits: HELP/TYPE comments followed by
// sample lines. It fails the test on any malformed line, duplicate
// TYPE, or sample whose metric family has no TYPE — the round-trip
// guarantee that whatever Registry.WriteText produces stays scrapeable.
func parseExposition(t *testing.T, text string) (samples []expoSample, types map[string]string) {
	t.Helper()
	types = make(map[string]string)
	help := make(map[string]string)
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 || parts[0] != "#" {
				t.Fatalf("line %d: malformed comment %q", ln+1, line)
			}
			switch parts[1] {
			case "HELP":
				if !expoNameRe.MatchString(parts[2]) {
					t.Fatalf("line %d: bad metric name in HELP: %q", ln+1, line)
				}
				if _, dup := help[parts[2]]; dup {
					t.Fatalf("line %d: duplicate HELP for %s", ln+1, parts[2])
				}
				help[parts[2]] = parts[3]
			case "TYPE":
				if !expoNameRe.MatchString(parts[2]) {
					t.Fatalf("line %d: bad metric name in TYPE: %q", ln+1, line)
				}
				switch parts[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					t.Fatalf("line %d: unknown type %q", ln+1, parts[3])
				}
				if _, dup := types[parts[2]]; dup {
					t.Fatalf("line %d: duplicate TYPE for %s", ln+1, parts[2])
				}
				types[parts[2]] = parts[3]
			default:
				t.Fatalf("line %d: unknown comment keyword %q", ln+1, parts[1])
			}
			continue
		}
		samples = append(samples, parseSampleLine(t, ln+1, line))
	}
	for _, s := range samples {
		fam := familyOf(s.name)
		if _, ok := types[fam]; !ok {
			t.Errorf("sample %s has no # TYPE for family %s", s.name, fam)
		}
		if _, ok := help[fam]; !ok {
			t.Errorf("sample %s has no # HELP for family %s", s.name, fam)
		}
	}
	return samples, types
}

func parseSampleLine(t *testing.T, ln int, line string) expoSample {
	t.Helper()
	s := expoSample{labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		t.Fatalf("line %d: no value separator: %q", ln, line)
	} else {
		s.name = rest[:i]
		rest = rest[i:]
	}
	if !expoNameRe.MatchString(s.name) {
		t.Fatalf("line %d: bad metric name %q", ln, s.name)
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.LastIndex(rest, "}") // a route label may hold {id}
		if end < 0 {
			t.Fatalf("line %d: unterminated label set: %q", ln, line)
		}
		for _, pair := range splitLabelPairs(t, ln, rest[1:end]) {
			eq := strings.Index(pair, "=")
			if eq < 0 {
				t.Fatalf("line %d: label pair %q has no =", ln, pair)
			}
			k, quoted := pair[:eq], pair[eq+1:]
			if !expoLabelRe.MatchString(k) {
				t.Fatalf("line %d: bad label name %q", ln, k)
			}
			v, err := strconv.Unquote(quoted)
			if err != nil {
				t.Fatalf("line %d: label value %s not a quoted string: %v", ln, quoted, err)
			}
			if _, dup := s.labels[k]; dup {
				t.Fatalf("line %d: duplicate label %q", ln, k)
			}
			s.labels[k] = v
		}
		rest = rest[end+1:]
	}
	rest = strings.TrimSpace(rest)
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		t.Fatalf("line %d: bad sample value %q: %v", ln, rest, err)
	}
	s.value = v
	return s
}

// splitLabelPairs splits k1="v1",k2="v2" on commas outside quotes.
func splitLabelPairs(t *testing.T, ln int, body string) []string {
	t.Helper()
	if body == "" {
		return nil
	}
	var pairs []string
	start, inQuote := 0, false
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '\\':
			if inQuote {
				i++
			}
		case '"':
			inQuote = !inQuote
		case ',':
			if !inQuote {
				pairs = append(pairs, body[start:i])
				start = i + 1
			}
		}
	}
	if inQuote {
		t.Fatalf("line %d: unterminated quote in labels %q", ln, body)
	}
	return append(pairs, body[start:])
}

// familyOf strips the histogram/summary sample suffixes so a sample
// can be matched to its TYPE line.
func familyOf(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

// labelKey renders a label set (minus le) as a stable map key.
func labelKey(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k == "le" {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%q,", k, labels[k])
	}
	return b.String()
}

func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestMetricsExpositionRoundTrip drives a clustering request and then
// verifies the complete /metrics output parses as well-formed text
// exposition format, with every histogram internally consistent.
func TestMetricsExpositionRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	info := registerFigure1(t, ts)
	resp := postJSON(t, ts.URL+"/v1/cluster", ClusterRequest{
		GraphID: info.ID, Method: "dd", Algorithm: "mcl", Inflation: 2, Seed: 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	samples, types := parseExposition(t, scrapeMetrics(t, ts.URL))
	if len(samples) == 0 {
		t.Fatal("no samples scraped")
	}

	// Every histogram: buckets cumulative and non-decreasing, +Inf
	// bucket present and equal to _count, _sum present.
	type histState struct {
		buckets map[float64]float64
		hasInf  bool
		inf     float64
		sum     *float64
		count   *float64
	}
	hists := make(map[string]*histState) // family + label key
	get := func(fam, key string) *histState {
		h := hists[fam+"|"+key]
		if h == nil {
			h = &histState{buckets: map[float64]float64{}}
			hists[fam+"|"+key] = h
		}
		return h
	}
	for _, s := range samples {
		fam := familyOf(s.name)
		if types[fam] != "histogram" {
			continue
		}
		key := labelKey(s.labels)
		h := get(fam, key)
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			le, ok := s.labels["le"]
			if !ok {
				t.Fatalf("%s bucket sample without le label", s.name)
			}
			if le == "+Inf" {
				h.hasInf, h.inf = true, s.value
				break
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("%s: bad le %q: %v", s.name, le, err)
			}
			h.buckets[bound] = s.value
		case strings.HasSuffix(s.name, "_sum"):
			v := s.value
			h.sum = &v
		case strings.HasSuffix(s.name, "_count"):
			v := s.value
			h.count = &v
		}
	}
	for id, h := range hists {
		if !h.hasInf {
			t.Errorf("%s: no +Inf bucket", id)
			continue
		}
		if h.sum == nil || h.count == nil {
			t.Errorf("%s: missing _sum or _count", id)
			continue
		}
		if h.inf != *h.count {
			t.Errorf("%s: +Inf bucket %v != count %v", id, h.inf, *h.count)
		}
		bounds := make([]float64, 0, len(h.buckets))
		for b := range h.buckets {
			bounds = append(bounds, b)
		}
		sort.Float64s(bounds)
		prev := 0.0
		for _, b := range bounds {
			if h.buckets[b] < prev {
				t.Errorf("%s: bucket le=%v count %v below previous %v", id, b, h.buckets[b], prev)
			}
			prev = h.buckets[b]
		}
		if h.inf < prev {
			t.Errorf("%s: +Inf %v below largest finite bucket %v", id, h.inf, prev)
		}
	}

	// The request must have landed in the serving and kernel families.
	want := map[string]string{
		"symclusterd_requests_total":           "counter",
		"symclusterd_request_seconds":          "histogram",
		"symclusterd_stage_seconds":            "histogram",
		"symclusterd_build_info":               "gauge",
		"symcluster_mcl_residual":              "histogram",
		"symcluster_mcl_iterations":            "histogram",
		"symcluster_symmetrize_nnz_out":        "histogram",
		"symclusterd_admission_rejected_total": "counter",
	}
	for fam, typ := range want {
		if got := types[fam]; got != typ {
			t.Errorf("family %s: type %q, want %q", fam, got, typ)
		}
	}
	var buildInfo *expoSample
	for i := range samples {
		if samples[i].name == "symclusterd_build_info" {
			buildInfo = &samples[i]
		}
	}
	if buildInfo == nil {
		t.Fatal("no symclusterd_build_info sample")
	}
	if buildInfo.value != 1 || buildInfo.labels["version"] == "" || buildInfo.labels["go_version"] == "" {
		t.Fatalf("build_info = %+v", *buildInfo)
	}

	// Stage histogram observed under the canonical labels the dashboards
	// key on.
	found := false
	for _, s := range samples {
		if s.name == "symclusterd_stage_seconds_count" &&
			s.labels["stage"] == "symmetrize" && s.labels["name"] == "dd" && s.value >= 1 {
			found = true
		}
	}
	if !found {
		t.Error(`no symclusterd_stage_seconds_count{stage="symmetrize",name="dd"} >= 1 sample`)
	}
}

// TestReadmeMetricTable holds README's metric table to /metrics both
// ways: every symclusterd_* family the table names (brace groups after
// an underscore expanded, a trailing {labels} group dropped) is exposed
// with a type its row states, and every exposed symclusterd_* family
// has a row.
func TestReadmeMetricTable(t *testing.T) {
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(raw), "| family | type | meaning |\n")
	if !ok {
		t.Fatal("README.md has no metric table")
	}
	table, _, _ = strings.Cut(table, "\n\n")
	documented := map[string]string{} // family → the row's type cell
	for _, line := range strings.Split(table, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 {
			continue
		}
		for _, quoted := range regexp.MustCompile("`[^`]+`").FindAllString(cells[1], -1) {
			for _, name := range braceExpand(strings.Trim(quoted, "`")) {
				documented[name] = cells[2]
			}
		}
	}
	// A labelled family is exposed once it has a series: the route
	// fixture, set up through each node of a two-node cluster (so one
	// side proxies), touches them all.
	nodes := newTestCluster(t, 2, nil)
	newRouteFixture(t, nodes[0].ts.URL)
	newRouteFixture(t, nodes[1].ts.URL)
	types := map[string]string{}
	for _, n := range nodes {
		_, seen := parseExposition(t, fetchMetrics(t, n.ts))
		for name, typ := range seen {
			types[name] = typ
		}
	}
	for name, typ := range types {
		if !strings.HasPrefix(name, "symclusterd_") {
			continue
		}
		if cell, ok := documented[name]; !ok {
			t.Errorf("exposed family %s (%s) has no row in README's metric table", name, typ)
		} else if !strings.Contains(cell, typ) {
			t.Errorf("%s is a %s; README's row says %q", name, typ, strings.TrimSpace(cell))
		}
		delete(documented, name)
	}
	for name := range documented {
		if strings.HasPrefix(name, "symclusterd_") {
			t.Errorf("README's metric table names %s, which the daemon does not expose", name)
		}
	}
}

// braceExpand turns a README family cell into family names:
// "a_{x,y}_total{route}" → a_x_total, a_y_total. A brace group that
// follows an underscore is an alternation, any other a label set.
func braceExpand(s string) []string {
	open := strings.IndexByte(s, '{')
	if open < 0 {
		return []string{s}
	}
	end := open + strings.IndexByte(s[open:], '}')
	if open == 0 || s[open-1] != '_' {
		return braceExpand(s[:open] + s[end+1:])
	}
	var out []string
	for _, alt := range strings.Split(s[open+1:end], ",") {
		out = append(out, braceExpand(s[:open]+alt+s[end+1:])...)
	}
	return out
}
