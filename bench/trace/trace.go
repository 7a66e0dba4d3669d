// Package trace is the benchmark's own span recorder. Spans are recorded
// only by bench-owned wrappers around calls into each layer (the handler,
// the PhotoService above and below dedup, the composite SecretStore and
// each shard); nothing inside the program under test is instrumented. A
// request carries its recorder in the context, so a request without one
// costs a single context lookup per wrapper and records nothing.
package trace

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer. Spans of one request share Req;
// Parent is the ID of the span that caused this one (0 for the request's
// root). Times are nanoseconds since the recorder's epoch.
type Span struct {
	Req    uint64 `json:"req"`
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's wall time in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Request collects the spans of one request. Store fan-outs record from
// several goroutines at once, hence the lock.
type Request struct {
	id    uint64
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewRequest starts an empty span set; epoch is the zero of its clock.
func NewRequest(id uint64, epoch time.Time) *Request {
	return &Request{id: id, epoch: epoch}
}

// Spans returns what was recorded; call it once the request has returned.
func (r *Request) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans
}

type ctxKey struct{}

type ctxVal struct {
	req    *Request
	parent uint32
}

// Context returns ctx carrying r, so wrappers below record into it.
func (r *Request) Context(ctx context.Context) context.Context {
	return context.WithValue(ctx, ctxKey{}, ctxVal{req: r})
}

func noop() {}

// Start opens a span named name under the span ctx already carries. The
// returned context makes the new span the parent of anything started
// below; the returned func closes it. Without a Request in ctx both are
// free.
func Start(ctx context.Context, name string) (context.Context, func()) {
	v, ok := ctx.Value(ctxKey{}).(ctxVal)
	if !ok {
		return ctx, noop
	}
	r := v.req
	r.mu.Lock()
	id := uint32(len(r.spans) + 1)
	r.spans = append(r.spans, Span{Req: r.id, ID: id, Parent: v.parent, Name: name, Start: int64(time.Since(r.epoch))})
	r.mu.Unlock()
	end := func() {
		now := int64(time.Since(r.epoch))
		r.mu.Lock()
		r.spans[id-1].End = now
		r.mu.Unlock()
	}
	return context.WithValue(ctx, ctxKey{}, ctxVal{req: r, parent: id}), end
}

// Self returns, aligned with spans (all of one request), each span's self
// time: its duration minus the part of that interval its direct children
// cover. Overlapping children (a parallel fan-out) are counted once, and a
// child is clipped to its parent, so self + covered == duration exactly.
func Self(spans []Span) []int64 {
	children := make(map[uint32][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.Dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of kids' intervals clipped to parent.
func covered(parent Span, kids []Span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	edge := parent.Start // everything before edge is already counted
	for _, k := range kids {
		lo, hi := max(k.Start, edge), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}

// WriteJSONL writes one span per line.
func WriteJSONL(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}
