package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// senders is the generator's concurrency: nproc goroutines, each with
// its own connection.
const senders = 2

type opKind uint8

const (
	opSubmit opKind = iota // a fresh shard
	opDup                  // a resubmission of an earlier shard
	opHotPCs
	opEstimate
)

func (k opKind) isSubmit() bool { return k == opSubmit || k == opDup }

// event is one scheduled operation of the open loop.
type event struct {
	due  time.Duration
	kind opKind
	seq  int    // shard sequence number (a dup repeats its original's)
	pool int    // pool shard the submission carries
	pc   uint64 // estimate target
}

// Open-loop shape of ingest-live.
const (
	dupShare    = 0.2         // share of submits that resubmit an earlier shard
	dupMinAge   = time.Second // a resubmitted shard was due at least this long before
	queryStart  = 500 * time.Millisecond
	queryMinAge = 500 * time.Millisecond // estimate targets come from shards due this long before
)

// liveSchedule expands the seed into the open loop's arrival schedule:
// Poisson submits at rate per second (dupShare of them resubmissions
// of shards due at least dupMinAge earlier), and from queryStart a
// fixed-rate query stream alternating /v1/hotpcs and /v1/estimate of
// the hottest PC of a shard due at least queryMinAge earlier. It is a
// pure function of its arguments.
func liveSchedule(seed uint64, dur time.Duration, rate, qrate float64, hotPCs []uint64) []event {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	var evs, fresh []event
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * 1e9)
		if t >= dur {
			break
		}
		if rng.Float64() < dupShare {
			old := sort.Search(len(fresh), func(i int) bool { return fresh[i].due > t-dupMinAge })
			if old > 0 {
				e := fresh[rng.IntN(old)]
				evs = append(evs, event{due: t, kind: opDup, seq: e.seq, pool: e.pool})
				continue
			}
		}
		e := event{due: t, kind: opSubmit, seq: len(fresh), pool: rng.IntN(len(hotPCs))}
		fresh = append(fresh, e)
		evs = append(evs, e)
	}
	period := time.Duration(1e9 / qrate)
	for i, t := 0, queryStart; t < dur; i, t = i+1, t+period {
		if i%2 == 0 {
			evs = append(evs, event{due: t, kind: opHotPCs})
			continue
		}
		old := sort.Search(len(fresh), func(i int) bool { return fresh[i].due > t-queryMinAge })
		if old == 0 {
			evs = append(evs, event{due: t, kind: opHotPCs})
			continue
		}
		evs = append(evs, event{due: t, kind: opEstimate, pc: hotPCs[fresh[rng.IntN(old)].pool]})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].due < evs[j].due })
	return evs
}

// bulkChoices is ingest-bulk's pool-shard sequence: a seeded Zipf(1)
// choice over a seeded permutation of the pool, so pool shards are sent
// at clearly different rates and the fleet's hot PCs are well
// separated.
func bulkChoices(seed uint64, n, count int) []int {
	rng := rand.New(rand.NewPCG(seed, 0xb0)) // distinct stream from the live schedule
	perm := rng.Perm(n)
	cum := make([]float64, n)
	var sum float64
	for i := range cum {
		sum += 1 / float64(i+1)
		cum[i] = sum
	}
	out := make([]int, count)
	for i := range out {
		r := rng.Float64() * sum
		out[i] = perm[sort.SearchFloat64s(cum, r)]
	}
	return out
}

// opResult is one completed operation.
type opResult struct {
	kind    opKind
	seq     int
	pool    int
	start   int64 // ns: due time (open loop) or send time (closed loop)
	sent    int64
	done    int64
	ok      bool
	inst    int  // acknowledging instance (submits)
	dupResp bool // the 202 said duplicate
	traced  bool
}

// gen is the load generator: one HTTP client with at most `senders`
// connections, and the run's time base.
type gen struct {
	client    *http.Client
	routerURL string
	base      time.Time
	tr        *tracer // nil in the untraced run
	pool      []*poolShard
}

func newGen(routerURL string, base time.Time, tr *tracer, pool []*poolShard) *gen {
	return &gen{
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     senders,
				MaxIdleConnsPerHost: senders,
				DisableCompression:  true,
			},
		},
		routerURL: routerURL,
		base:      base,
		tr:        tr,
		pool:      pool,
	}
}

func (g *gen) now() int64 { return int64(time.Since(g.base)) }

// traceWindow is the length of the traced run's alternating untraced and
// traced windows; comparing them gives the tracing overhead.
const traceWindow = 500 * time.Millisecond

// tracedNow reports whether a request starting now is traced, and keeps
// the capture hooks' gate in step with the window.
func (g *gen) tracedNow() bool {
	if g.tr == nil {
		return false
	}
	on := (time.Since(g.base)/traceWindow)%2 == 1
	g.tr.on.Store(on)
	return on
}

// do sends one request to the router and returns its status and body;
// a traced request carries the span headers and records a client span.
func (g *gen) do(method, path string, body []byte, req string, traced bool) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hr, err := http.NewRequestWithContext(context.Background(), method, g.routerURL+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	var id uint64
	var start int64
	if traced {
		id = g.tr.newID()
		hr.Header.Set(hdrSpan, strconv.FormatUint(id, 10))
		hr.Header.Set(hdrShard, req)
		start = g.tr.now()
	}
	resp, err := g.client.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if traced {
		name := "client.query"
		if body != nil {
			name = "client.submit"
		}
		g.tr.add(span{ID: id, Req: req, Name: name, Start: start, End: g.tr.now()})
	}
	return resp.StatusCode, out, err
}

// submitReply is the part of the router's 202 the generator checks.
type submitReply struct {
	Duplicate bool   `json:"duplicate"`
	Captured  uint64 `json:"captured"`
	Instance  string `json:"instance"`
}

// submit sends pool shard p under shard id seq; buf is the sender's
// reusable body buffer.
func (g *gen) submit(buf *[]byte, kind byte, seq, p int, r *opResult) {
	id := shardID(kind, seq)
	*buf = g.pool[p].bodyFor(*buf, id)
	r.traced = g.tracedNow()
	r.sent = g.now()
	status, body, err := g.do(http.MethodPost, "/v1/submit", *buf, id, r.traced)
	r.done = g.now()
	if err != nil || status != http.StatusAccepted {
		return
	}
	var rep submitReply
	if json.Unmarshal(body, &rep) != nil || rep.Captured != g.pool[p].captured {
		return
	}
	var inst int
	if _, err := fmt.Sscanf(rep.Instance, "c%d", &inst); err != nil || inst < 0 || inst >= instances {
		return
	}
	r.ok, r.inst, r.dupResp = true, inst, rep.Duplicate
}

// queryReply is the part of a router query answer the generator checks:
// an answer missing an instance is a failure.
type queryReply struct {
	Partial bool `json:"partial"`
}

// query sends one router query.
func (g *gen) query(kind opKind, pc uint64, seq int, r *opResult) {
	path := "/v1/hotpcs?n=10"
	if kind == opEstimate {
		path = fmt.Sprintf("/v1/estimate?pc=%#x", pc)
	}
	r.traced = g.tracedNow()
	r.sent = g.now()
	status, body, err := g.do(http.MethodGet, path, nil, "q"+strconv.Itoa(seq), r.traced)
	r.done = g.now()
	var rep queryReply
	r.ok = err == nil && status == http.StatusOK && json.Unmarshal(body, &rep) == nil && !rep.Partial
}

// runOpenLoop plays the schedule from phase start t0 on `senders`
// goroutines: each free sender takes the earliest unclaimed event,
// waits for its due time and sends it. Latency counts from the due time.
func (g *gen) runOpenLoop(t0 time.Time, evs []event) []opResult {
	out := make([]opResult, len(evs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for {
				i := int(next.Add(1) - 1)
				if i >= len(evs) {
					return
				}
				e := evs[i]
				due := t0.Add(e.due)
				time.Sleep(time.Until(due))
				r := &out[i]
				r.kind, r.seq, r.pool, r.start = e.kind, e.seq, e.pool, int64(due.Sub(g.base))
				if e.kind.isSubmit() {
					g.submit(&buf, 'l', e.seq, e.pool, r)
				} else {
					g.query(e.kind, e.pc, i, r)
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// runClosedLoop runs `senders` fleet workers that each send the next
// pool shard under a fresh id and wait for the 202, until deadline.
func (g *gen) runClosedLoop(deadline time.Time, choices []int) []opResult {
	var (
		mu  sync.Mutex
		out []opResult
		seq atomic.Int64
		wg  sync.WaitGroup
	)
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for time.Now().Before(deadline) {
				s := int(seq.Add(1) - 1)
				if s >= len(choices) {
					return
				}
				r := opResult{kind: opSubmit, seq: s, pool: choices[s]}
				g.submit(&buf, 'b', s, r.pool, &r)
				r.start = r.sent
				mu.Lock()
				out = append(out, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// runQueryLoop runs `senders` closed-loop readers alternating hot-PC
// and estimate queries until deadline; estimate targets are the hottest
// PCs of shards already sent.
func (g *gen) runQueryLoop(deadline time.Time, sentPools []int) []opResult {
	var (
		mu  sync.Mutex
		out []opResult
		seq atomic.Int64
		wg  sync.WaitGroup
	)
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				s := int(seq.Add(1) - 1)
				kind := opHotPCs
				var pc uint64
				if s%2 == 1 {
					kind, pc = opEstimate, g.pool[sentPools[s%len(sentPools)]].hotPC
				}
				r := opResult{kind: kind, seq: s}
				g.query(kind, pc, s, &r)
				r.start = r.sent
				mu.Lock()
				out = append(out, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// observer polls every instance's aggregate counters (lock-free view
// loads) and, in the traced run, queue depths, until stopped. It does
// no request work, so it does not add to the generator's load.
type observer struct {
	stop  chan struct{}
	done  chan struct{}
	polls []poll
	depth []float64
}

// pollEvery is the observer's period, the resolution of visible_*.
const pollEvery = 250 * time.Microsecond

func startObserver(t *tier, g *gen, depths bool) *observer {
	o := &observer{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(o.done)
		tick := time.NewTicker(pollEvery)
		defer tick.Stop()
		var last [instances]uint64
		for first := true; ; first = false {
			c := t.captured()
			if first || c != last {
				o.polls = append(o.polls, poll{t: g.now(), c: c})
				last = c
			}
			if depths {
				for _, s := range t.svcs {
					o.depth = append(o.depth, float64(s.QueueDepth()))
				}
			}
			select {
			case <-o.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return o
}

// waitCovered blocks until every instance's counters reach want or the
// timeout passes; it reports whether they did.
func waitCovered(t *tier, want [instances]uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		c := t.captured()
		covered := true
		for i := range c {
			covered = covered && c[i] >= want[i]
		}
		if covered {
			time.Sleep(2 * pollEvery) // let the observer record the covering poll
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

func (o *observer) close() {
	close(o.stop)
	<-o.done
}
