package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"p3/bench/trace"
)

// photo is one uploaded photo as the clients see it: its ID, the source it
// was split from, and a pre-built request per variant.
type photo struct {
	id   string
	src  int
	reqs [numVariants]*http.Request
}

func newPhoto(id string, src int) *photo {
	p := &photo{id: id, src: src}
	for v, q := range variantTable {
		u := "/photo/" + id
		if q != "" {
			u += "?" + q
		}
		p.reqs[v] = mustRequest(http.MethodGet, u, nil)
	}
	return p
}

func mustRequest(method, url string, body []byte) *http.Request {
	var r *http.Request
	var err error
	if body != nil {
		r, err = http.NewRequest(method, url, bytes.NewReader(body))
	} else {
		r, err = http.NewRequest(method, url, nil)
	}
	if err != nil {
		panic(err) // URLs are built from the harness's own constants
	}
	return r
}

// respWriter is the client side of a request: no socket, it counts the
// body and keeps it only when asked.
type respWriter struct {
	hdr    http.Header
	status int
	n      int
	keep   bool
	body   []byte
}

func (w *respWriter) Header() http.Header { return w.hdr }

func (w *respWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *respWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.n += len(p)
	if w.keep {
		w.body = append(w.body, p...)
	}
	return len(p), nil
}

func (w *respWriter) reset(keep bool) {
	w.status, w.n, w.keep, w.body = 0, 0, keep, w.body[:0]
}

// client is one closed-loop request goroutine's state.
type client struct {
	r    *runner
	idx  int
	ops  []op // the list window replays; scratch clients have none
	next int
	own  []*photo // the client's live uploads, oldest first
	w    respWriter

	lat       [numOps]*latencies
	firstLen  []int32 // first-seen body length per (source, variant); 0 = unseen
	attempted int64
	failed    int64
	firstErr  string

	// Traced runs: iteration time and count by mode and stratum (op kind ×
	// size class × variant, so the two modes are compared like for like),
	// and the traced requests.
	stratum         int
	modeNs, modeOps [3][numStrata]int64
	reqs            []*trace.Request
	seq             uint64
}

func newClient(r *runner, idx int) *client {
	c := &client{r: r, idx: idx, firstLen: make([]int32, len(r.sources)*numVariants)}
	c.w.hdr = make(http.Header)
	for k := range c.lat {
		c.lat[k] = new(latencies)
	}
	return c
}

func (c *client) fail(format string, args ...any) {
	c.failed++
	if c.firstErr == "" {
		c.firstErr = fmt.Sprintf(format, args...)
	}
}

// resolve maps an op's photo reference onto a live photo.
func (c *client) resolve(o op) *photo {
	if o.photo >= 0 {
		return c.r.pre[o.photo]
	}
	rank := rankOf(c.r.cdf, len(c.r.pre)+len(c.own), o.u)
	if rank < len(c.r.pre) {
		return c.r.pre[rank]
	}
	return c.own[len(c.own)-1-(rank-len(c.r.pre))]
}

// do executes one op through h and checks the response. tr, when non-nil,
// records the request's spans. It returns the instants around ServeHTTP.
func (c *client) do(h http.Handler, o op, tr *trace.Request) (t0, t1 time.Time) {
	var req *http.Request
	var ph *photo
	keep := false
	switch o.kind {
	case opView:
		ph = c.resolve(o)
		req = ph.reqs[o.variant]
	case opUpload:
		req, keep = mustRequest(http.MethodPost, "/upload", c.r.sources[o.src].jpeg), true
	case opSimilar:
		req = mustRequest(http.MethodGet, "/similar/"+c.resolve(o).id+"?d=10", nil)
	case opVideo:
		req = mustRequest(http.MethodGet, fmt.Sprintf("/video/%s?frame=%d", c.r.clipIDs[o.src], o.frame), nil)
	case opDelete:
		ph = c.own[0]
		req = mustRequest(http.MethodDelete, "/photo/"+ph.id, nil)
	}
	class := 0
	if ph != nil {
		class = c.r.sources[ph.src].class
	} else if o.kind == opUpload {
		class = c.r.sources[o.src].class
	}
	c.stratum = (int(o.kind)*numClasses+class)*numVariants + int(o.variant)
	end := func() {}
	if tr != nil {
		var ctx context.Context
		ctx, end = trace.Start(tr.Context(req.Context()), "proxy."+opNames[o.kind])
		req = req.WithContext(ctx)
	}
	c.w.reset(keep)
	t0 = time.Now()
	h.ServeHTTP(&c.w, req)
	t1 = time.Now()
	end()

	c.attempted++
	if c.w.status/100 != 2 {
		c.fail("%s %s: status %d %s", req.Method, req.URL, c.w.status, bytes.TrimSpace(c.w.body))
		return
	}
	switch o.kind {
	case opView:
		slot := &c.firstLen[ph.src*numVariants+int(o.variant)]
		if *slot == 0 {
			*slot = int32(c.w.n)
		}
		if c.w.n == 0 || int32(c.w.n) != *slot {
			c.fail("GET %s: %d bytes, first seen %d", req.URL, c.w.n, *slot)
		}
	case opUpload:
		var out struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(c.w.body, &out); err != nil || out.ID == "" {
			c.fail("POST /upload: bad response %q", c.w.body)
			return
		}
		c.own = append(c.own, newPhoto(out.ID, int(o.src)))
		c.r.addOrig(int64(len(c.r.sources[o.src].jpeg)))
	case opDelete:
		c.own = c.own[1:]
		c.r.addOrig(-int64(len(c.r.sources[ph.src].jpeg)))
	default:
		if c.w.n == 0 {
			c.fail("%s %s: empty body", req.Method, req.URL)
		}
	}
	return
}

func (r *runner) addOrig(n int64) {
	r.origMu.Lock()
	r.uploadedOrig += n
	r.origMu.Unlock()
}

// window runs the client's list against h until the deadline, timing each
// request. In a traced run every other request is traced, so one run yields
// both the spans and what recording them costs; a per-slice budget bounds
// the span file on microsecond workloads, and requests past it count for
// neither side of that comparison.
func (c *client) window(h http.Handler, start time.Time, dur time.Duration, traced bool) {
	deadline := start.Add(dur)
	budget, slice := 0, -1
	last := time.Now()
	for last.Before(deadline) {
		o := c.ops[c.next%len(c.ops)]
		c.next++
		var tr *trace.Request
		mode := modeUnsampled
		if traced {
			if s := int(last.Sub(start) / traceSlice); s != slice {
				slice, budget = s, traceSliceReqs
			}
			if budget > 0 {
				budget--
				if mode = budget % 2; mode == modeTraced {
					c.seq++
					tr = trace.NewRequest(uint64(c.idx)<<40|c.seq, start)
					c.reqs = append(c.reqs, tr)
				}
			}
		}
		t0, t1 := c.do(h, o, tr)
		c.lat[o.kind].add(int64(t1.Sub(t0)))
		c.modeNs[mode][c.stratum] += int64(t1.Sub(last))
		c.modeOps[mode][c.stratum]++
		last = t1
	}
}

// parallel runs f(g, 0..n-1) on numClients goroutines; g says which.
func parallel(n int, f func(g, i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for g := 0; g < numClients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(g, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
