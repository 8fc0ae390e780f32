package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Headers the traced run adds to its own requests so each layer's span
// can name its parent and the request it belongs to. The tier never
// reads them; only the benchmark's wrappers do.
const (
	hdrSpan  = "X-Perfbench-Span"
	hdrShard = "X-Perfbench-Req"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req (the shard id, or the query's name and sequence number).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans in memory. on gates recording, so a traced run
// can alternate traced and untraced windows and measure its own
// overhead; a nil *tracer records nothing (the untraced run).
type tracer struct {
	on     atomic.Bool
	base   time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span

	// Capture-hook times by request id, one map per hook site; the
	// handler wrapper of the same layer takes its entry when it ends.
	routerCaps sync.Map
	serverCaps sync.Map
}

func newTracer(base time.Time) *tracer { return &tracer{base: base} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of every span recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// captureHook returns a Capture hook (router or instance) that stamps
// when the layer finished reading and parsing the body.
func (t *tracer) captureHook(m *sync.Map) func(shard string, body []byte) {
	return func(shard string, _ []byte) {
		if t.on.Load() {
			m.Store(shard, t.now())
		}
	}
}

// takeCapture returns the capture time recorded for req if it lies
// within [start, end]; anything else is a stale entry from a window
// switch and is ignored.
func takeCapture(m *sync.Map, req string, start, end int64) (int64, bool) {
	v, ok := m.LoadAndDelete(req)
	if !ok {
		return 0, false
	}
	c := v.(int64)
	return c, c >= start && c <= end
}

type spanCtxKey struct{}

type spanCtx struct {
	id  uint64
	req string
}

// wrap times an http.Handler of one tier layer ("router" or "server").
// Requests without the span header pass straight through. Submissions
// get two children split at the layer's Capture hook: parse/decode
// before it and, on an instance, admission after it.
func (t *tracer) wrap(layer string, h http.Handler) http.Handler {
	caps := &t.routerCaps
	if layer == "server" {
		caps = &t.serverCaps
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hdr := r.Header.Get(hdrSpan)
		if hdr == "" {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(hdr, 10, 64)
		req := r.Header.Get(hdrShard)
		id := t.newID()
		start := t.now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanCtxKey{}, spanCtx{id, req})))
		end := t.now()
		name := layer + "." + strings.TrimPrefix(r.URL.Path, "/v1/")
		t.add(span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
		if r.URL.Path != "/v1/submit" {
			return
		}
		c, ok := takeCapture(caps, req, start, end)
		if !ok {
			return
		}
		if layer == "router" {
			t.add(span{ID: t.newID(), Parent: id, Req: req, Name: "router.parse", Start: start, End: c})
			return
		}
		t.add(span{ID: t.newID(), Parent: id, Req: req, Name: "server.decode", Start: start, End: c})
		t.add(span{ID: t.newID(), Parent: id, Req: req, Name: "server.admit", Start: c, End: end})
	})
}

// legTransport is the router's outbound RoundTripper in the traced run:
// it times each instance leg and forwards the span identity to the
// instance as headers.
type legTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (lt legTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sc, ok := req.Context().Value(spanCtxKey{}).(spanCtx)
	if !ok {
		return lt.base.RoundTrip(req)
	}
	id := lt.t.newID()
	out := req.Clone(req.Context())
	out.Header.Set(hdrSpan, strconv.FormatUint(id, 10))
	out.Header.Set(hdrShard, sc.req)
	start := lt.t.now()
	resp, err := lt.base.RoundTrip(out)
	name := "router.leg." + strings.TrimPrefix(req.URL.Path, "/v1/")
	lt.t.add(span{ID: id, Parent: sc.id, Req: sc.req, Name: name, Start: start, End: lt.t.now()})
	return resp, err
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (overlapping children, such
// as parallel query legs, count once).
func selfTimes(spans []span) []int64 {
	kids := make(map[uint64][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, k := range kids[s.ID] {
			a, b := spans[k].Start, spans[k].End
			if a < s.Start {
				a = s.Start
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, reach int64
		reach = s.Start
		for _, v := range ivs {
			if v.b <= reach {
				continue
			}
			if v.a < reach {
				v.a = reach
			}
			covered += v.b - v.a
			reach = v.b
		}
		out[i] = s.dur() - covered
	}
	return out
}

// layerRow is one line of the self-time table.
type layerRow struct {
	Name      string
	N         int
	DurP50us  float64
	SelfP50us float64
	SelfSumMs float64
}

// selfTable aggregates self times by span name.
func selfTable(spans []span) []layerRow {
	self := selfTimes(spans)
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	for i, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.dur())/1e3)
		selfs[s.Name] = append(selfs[s.Name], float64(self[i])/1e3)
	}
	rows := make([]layerRow, 0, len(durs))
	for name, d := range durs {
		var sum float64
		for _, v := range selfs[name] {
			sum += v
		}
		rows = append(rows, layerRow{Name: name, N: len(d), DurP50us: median(d), SelfP50us: median(selfs[name]), SelfSumMs: sum / 1e3})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

func printSelfTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-22s %8s %12s %12s %12s\n", "span", "count", "dur p50 us", "self p50 us", "self sum ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %8d %12.1f %12.1f %12.1f\n", r.Name, r.N, r.DurP50us, r.SelfP50us, r.SelfSumMs)
	}
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanDurs returns the durations (us) of spans with the given name.
func spanDurs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// minusChildren returns, for each span named name, its duration minus
// the union its children named child cover (with slowestOnly, minus only
// its slowest such child), in us.
func minusChildren(spans []span, name, child string, slowestOnly bool) []float64 {
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Name == child {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		ks := kids[s.ID]
		if len(ks) == 0 {
			continue
		}
		var sub int64
		if slowestOnly {
			for _, k := range ks {
				if k.dur() > sub {
					sub = k.dur()
				}
			}
		} else {
			probe := append([]span{s}, ks...)
			sub = s.dur() - selfTimes(probe)[0]
		}
		out = append(out, float64(s.dur()-sub)/1e3)
	}
	return out
}

// bandBreakdown looks at the requests whose root span (named root) lies
// in the middle band of durations (45th to 55th percentile) and returns
// the mean self time (us) of every span name in their trees and the
// band's mean root duration (us): where the time of a median request
// goes. Self times of a complete tree sum to its root's duration.
func bandBreakdown(spans []span, root string) (map[string]float64, float64, int) {
	byID := make(map[uint64]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	var roots []float64
	for _, s := range spans {
		if s.Name == root {
			roots = append(roots, float64(s.dur()))
		}
	}
	if len(roots) == 0 {
		return nil, 0, 0
	}
	lo, hi := quantile(roots, 0.45), quantile(roots, 0.55)
	inBand := map[uint64]bool{}
	var sum float64
	for _, s := range spans {
		if d := float64(s.dur()); s.Name == root && d >= lo && d <= hi {
			inBand[s.ID] = true
			sum += d
		}
	}
	self := selfTimes(spans)
	out := map[string]float64{}
	for i, s := range spans {
		r := s
		for r.Parent != 0 {
			j, ok := byID[r.Parent]
			if !ok {
				break
			}
			r = spans[j]
		}
		if inBand[r.ID] {
			out[s.Name] += float64(self[i]) / 1e3
		}
	}
	n := float64(len(inBand))
	for k := range out {
		out[k] /= n
	}
	return out, sum / n / 1e3, len(inBand)
}
