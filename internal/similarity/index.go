package similarity

import (
	"sort"
	"sync"
	"time"

	"p3/internal/metrics"
)

// Match is one similarity query result.
type Match struct {
	ID       string `json:"id"`
	Hash     string `json:"hash"`
	Distance int    `json:"distance"`
}

// node is a BK-tree node. The BK-tree exploits the triangle inequality
// of hamming distance: children are bucketed by their exact distance to
// the parent, so a radius-d query only descends edges within
// [dist-d, dist+d]. Removal clears a node's ID set but keeps the node
// for routing (rebalancing a BK-tree in place isn't possible); empty
// nodes contribute no matches.
type node struct {
	hash Hash
	ids  map[string]struct{}
	kids map[int]*node
}

func (n *node) insert(h Hash, id string) {
	for {
		d := Distance(n.hash, h)
		if d == 0 {
			if n.ids == nil {
				n.ids = make(map[string]struct{})
			}
			n.ids[id] = struct{}{}
			return
		}
		child, ok := n.kids[d]
		if !ok {
			if n.kids == nil {
				n.kids = make(map[int]*node)
			}
			n.kids[d] = &node{hash: h, ids: map[string]struct{}{id: {}}}
			return
		}
		n = child
	}
}

func (n *node) query(h Hash, maxDist int, out *[]Match) {
	d := Distance(n.hash, h)
	if d <= maxDist {
		for id := range n.ids {
			*out = append(*out, Match{ID: id, Hash: n.hash.String(), Distance: d})
		}
	}
	for edge, child := range n.kids {
		if edge >= d-maxDist && edge <= d+maxDist {
			child.query(h, maxDist, out)
		}
	}
}

// Option configures an Index.
type Option func(*idxConfig)

type idxConfig struct {
	registry *metrics.Registry
	workers  int
	queue    int
}

// WithRegistry points the index's p3_similarity_* series at a private
// registry instead of metrics.Default.
func WithRegistry(r *metrics.Registry) Option {
	return func(c *idxConfig) { c.registry = r }
}

// WithWorkers sets the number of background hash workers (default 4;
// 0 hashes inline on Enqueue).
func WithWorkers(n int) Option {
	return func(c *idxConfig) { c.workers = n }
}

// WithQueueDepth bounds the ingest queue (default 256). When the queue
// is full, Enqueue hashes inline — backpressure on the producer instead
// of unbounded memory.
func WithQueueDepth(n int) Option {
	return func(c *idxConfig) { c.queue = n }
}

type job struct {
	id   string
	jpeg []byte
}

// Index is a concurrent perceptual-hash index over public parts.
// Uploads enqueue (id, public JPEG) pairs; a fixed pool of workers
// drains the bounded queue, hashing off the request path (the
// concurrent-loader shape: producers never block on DCT work unless the
// queue is saturated). Queries take a read lock and walk the BK-tree.
type Index struct {
	mu   sync.RWMutex
	root *node
	byID map[string]Hash

	jobs    chan job
	workers sync.WaitGroup
	pending sync.WaitGroup
	closeMu sync.Mutex
	closed  bool

	ingests      metrics.Counter
	ingestErrors metrics.Counter
	inline       metrics.Counter
	queries      metrics.Counter
	querySecs    *metrics.Histogram
}

// NewIndex builds an empty index and starts its ingest workers.
func NewIndex(opts ...Option) *Index {
	cfg := idxConfig{registry: metrics.Default, workers: 4, queue: 256}
	for _, opt := range opts {
		opt(&cfg)
	}
	ix := &Index{
		byID: make(map[string]Hash),
		jobs: make(chan job, cfg.queue),
	}
	r := cfg.registry
	labels := []metrics.Label{{Key: "index", Value: "similarity"}}
	metrics.Export(r, "p3_similarity", ix.Stats, labels...)
	ix.querySecs = r.Histogram("p3_similarity_query_seconds",
		"Similarity query latency (hash lookup + BK-tree walk).", labels...)
	for i := 0; i < cfg.workers; i++ {
		ix.workers.Add(1)
		go func() {
			defer ix.workers.Done()
			for j := range ix.jobs {
				ix.ingest(j)
			}
		}()
	}
	return ix
}

// Enqueue schedules (id, jpeg) for background hashing. jpeg must not be
// mutated by the caller afterwards. With a full queue (or zero workers)
// the hash runs inline, so Enqueue never drops work and never blocks on
// a slow consumer. After Close, Enqueue is a no-op.
func (ix *Index) Enqueue(id string, jpeg []byte) {
	ix.closeMu.Lock()
	if ix.closed {
		ix.closeMu.Unlock()
		return
	}
	ix.pending.Add(1)
	select {
	case ix.jobs <- job{id: id, jpeg: jpeg}:
		ix.closeMu.Unlock()
	default:
		ix.closeMu.Unlock()
		ix.inline.Inc()
		ix.ingest(job{id: id, jpeg: jpeg})
	}
}

func (ix *Index) ingest(j job) {
	defer ix.pending.Done()
	h, err := PHash(j.jpeg)
	if err != nil {
		ix.ingestErrors.Inc()
		return
	}
	ix.Add(j.id, h)
}

// Add inserts a pre-computed hash. Re-adding an ID replaces its hash.
func (ix *Index) Add(id string, h Hash) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if old, ok := ix.byID[id]; ok {
		if old == h {
			ix.ingests.Inc()
			return
		}
		ix.removeLocked(id, old)
	}
	ix.byID[id] = h
	if ix.root == nil {
		ix.root = &node{hash: h, ids: map[string]struct{}{id: {}}}
	} else {
		ix.root.insert(h, id)
	}
	ix.ingests.Inc()
}

// Remove drops an ID from the index (no-op when absent). The BK-tree
// node stays for routing; only the ID set shrinks.
func (ix *Index) Remove(id string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if h, ok := ix.byID[id]; ok {
		ix.removeLocked(id, h)
	}
}

func (ix *Index) removeLocked(id string, h Hash) {
	delete(ix.byID, id)
	n := ix.root
	for n != nil {
		d := Distance(n.hash, h)
		if d == 0 {
			delete(n.ids, id)
			return
		}
		n = n.kids[d]
	}
}

// Flush blocks until every Enqueue issued so far has been hashed and
// inserted (or counted as an ingest error).
func (ix *Index) Flush() { ix.pending.Wait() }

// Close drains the queue and stops the workers. Enqueue becomes a no-op.
func (ix *Index) Close() {
	ix.closeMu.Lock()
	if ix.closed {
		ix.closeMu.Unlock()
		return
	}
	ix.closed = true
	ix.closeMu.Unlock()
	ix.pending.Wait()
	close(ix.jobs)
	ix.workers.Wait()
}

// Hash returns the indexed hash for id.
func (ix *Index) Hash(id string) (Hash, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	h, ok := ix.byID[id]
	return h, ok
}

// Len returns the number of indexed IDs.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.byID)
}

// Query returns every indexed ID within maxDist hamming bits of h,
// sorted by (distance, id). This is exact: the property tests compare
// it against a brute-force oracle over the full ID set.
func (ix *Index) Query(h Hash, maxDist int) []Match {
	start := time.Now()
	ix.mu.RLock()
	var out []Match
	if ix.root != nil {
		ix.root.query(h, maxDist, &out)
	}
	ix.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].ID < out[j].ID
	})
	ix.queries.Inc()
	ix.querySecs.Observe(time.Since(start))
	return out
}

// QueryID looks up id's hash and returns its neighbors within maxDist,
// excluding id itself. ok is false when id isn't indexed.
func (ix *Index) QueryID(id string, maxDist int) (matches []Match, ok bool) {
	h, ok := ix.Hash(id)
	if !ok {
		return nil, false
	}
	all := ix.Query(h, maxDist)
	matches = all[:0]
	for _, m := range all {
		if m.ID != id {
			matches = append(matches, m)
		}
	}
	return matches, true
}

// Stats is a snapshot for /stats and the bench harness. The tagged
// fields are the p3_similarity_* series (metrics.Export).
type Stats struct {
	Ingests       uint64 `json:"ingests" metric:"counter" help:"Public parts hashed into the similarity index."`
	IngestErrors  uint64 `json:"ingest_errors" metric:"counter" help:"Public parts that failed to hash (undecodable)."`
	InlineIngests uint64 `json:"inline_ingests" metric:"counter" help:"Ingests hashed on the caller because the queue was full."`
	Queries       uint64 `json:"queries" metric:"counter" help:"Similarity queries served."`
	Size          int    `json:"size" metric:"gauge,index_size" help:"IDs currently indexed."`
	QueueDepth    int    `json:"queue_depth" metric:"gauge" help:"Ingest jobs waiting for a worker."`
}

// Stats returns current counters, index size and ingest queue depth.
func (ix *Index) Stats() Stats {
	return Stats{
		Ingests:       ix.ingests.Value(),
		IngestErrors:  ix.ingestErrors.Value(),
		InlineIngests: ix.inline.Value(),
		Queries:       ix.queries.Value(),
		Size:          ix.Len(),
		QueueDepth:    len(ix.jobs),
	}
}
