package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"p3"
	"p3/bench/recpsp"
	"p3/bench/trace"
	"p3/internal/admission"
	"p3/internal/dedup"
	"p3/internal/metrics"
	"p3/internal/proxy"
	"p3/internal/psp"
	"p3/internal/similarity"
)

// photoBackend is what every PhotoService the stack stacks provides.
type photoBackend interface {
	p3.PhotoService
	p3.UploadDimsService
	p3.PhotoDeleter
}

// tracedPhotos records a span around each call into a PhotoService. Two
// sit in a stack with dedup on: "dedup" above dedup.Store and "psp" below.
type tracedPhotos struct {
	next                  photoBackend
	upload, fetch, remove string
}

func newTracedPhotos(next photoBackend, layer string) *tracedPhotos {
	return &tracedPhotos{next: next, upload: layer + ".upload", fetch: layer + ".fetch", remove: layer + ".delete"}
}

func (t *tracedPhotos) UploadPhoto(ctx context.Context, b []byte) (string, error) {
	id, _, _, err := t.UploadPhotoWithDims(ctx, b)
	return id, err
}

func (t *tracedPhotos) UploadPhotoWithDims(ctx context.Context, b []byte) (string, int, int, error) {
	ctx, end := trace.Start(ctx, t.upload)
	defer end()
	return t.next.UploadPhotoWithDims(ctx, b)
}

func (t *tracedPhotos) FetchPhoto(ctx context.Context, id string, v p3.PhotoVariant) ([]byte, error) {
	ctx, end := trace.Start(ctx, t.fetch)
	defer end()
	return t.next.FetchPhoto(ctx, id, v)
}

func (t *tracedPhotos) DeletePhoto(ctx context.Context, id string) error {
	ctx, end := trace.Start(ctx, t.remove)
	defer end()
	return t.next.DeletePhoto(ctx, id)
}

type secretBackend interface {
	p3.SecretStore
	p3.SecretDeleter
}

var errShardDown = errors.New("bench: shard failed on purpose")

// tracedStore records a span around each call into a SecretStore, counts
// the bytes it is handed and holds, and can be failed to play a dead shard.
// One wraps the composite store ("store") and one each shard ("shard").
type tracedStore struct {
	next             secretBackend
	put, get, remove string
	down             atomic.Bool

	putBytes atomic.Int64 // bytes handed to PutSecret
	mu       sync.Mutex
	held     map[string]int // bytes currently stored per key
	heldSum  int64
}

func newTracedStore(next secretBackend, layer string) *tracedStore {
	return &tracedStore{next: next, put: layer + ".put", get: layer + ".get", remove: layer + ".delete", held: make(map[string]int)}
}

func (t *tracedStore) hold(id string, n int) {
	t.mu.Lock()
	t.heldSum += int64(n - t.held[id])
	if n == 0 {
		delete(t.held, id)
	} else {
		t.held[id] = n
	}
	t.mu.Unlock()
}

func (t *tracedStore) heldBytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.heldSum
}

func (t *tracedStore) PutSecret(ctx context.Context, id string, blob []byte) error {
	ctx, end := trace.Start(ctx, t.put)
	defer end()
	if t.down.Load() {
		return errShardDown
	}
	t.putBytes.Add(int64(len(blob)))
	err := t.next.PutSecret(ctx, id, blob)
	if err == nil {
		t.hold(id, len(blob))
	}
	return err
}

func (t *tracedStore) GetSecret(ctx context.Context, id string) ([]byte, error) {
	ctx, end := trace.Start(ctx, t.get)
	defer end()
	if t.down.Load() {
		return nil, errShardDown
	}
	return t.next.GetSecret(ctx, id)
}

func (t *tracedStore) DeleteSecret(ctx context.Context, id string) error {
	ctx, end := trace.Start(ctx, t.remove)
	defer end()
	if t.down.Load() {
		return errShardDown
	}
	err := t.next.DeleteSecret(ctx, id)
	if err == nil {
		t.hold(id, 0)
	}
	return err
}

// stack is one built instance of the system under test plus the
// bench-owned pieces around it.
type stack struct {
	proxy   *proxy.Proxy
	dedup   *dedup.Store // nil when off
	store   *tracedStore // composite
	shards  []*tracedStore
	erasure bool
	closers []func()
}

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

// serve starts a loopback HTTP server owned by the stack.
func (s *stack) serve(h http.Handler) string {
	srv := httptest.NewServer(h)
	s.closers = append(s.closers, srv.Close)
	return srv.URL
}

// buildStack assembles the real stack the workload row describes: p3.Codec
// → internal/proxy → caches, admission, dedup, similarity → root
// SecretStore backends, over the recorded PSP. dir is a fresh directory
// for disk shards.
func buildStack(w *workload, codec *p3.Codec, rec *recpsp.PSP, dir string) (*stack, error) {
	s := &stack{erasure: !w.httpBackends}
	reg := metrics.NewRegistry()
	fail := func(err error) (*stack, error) {
		s.close()
		return nil, err
	}

	var photos photoBackend = rec
	if w.httpBackends {
		photos = p3.NewHTTPPhotoService(s.serve(rec))
	}
	photos = newTracedPhotos(photos, "psp")
	if w.dedup {
		s.dedup = dedup.New(photos, dedup.WithRegistry(reg))
		photos = newTracedPhotos(s.dedup, "dedup")
	}

	var composite secretBackend
	if w.httpBackends {
		var shards []p3.SecretStore
		for i := 0; i < 3; i++ {
			sh := newTracedStore(p3.NewHTTPSecretStore(s.serve(psp.NewBlobStore())), "shard")
			s.shards = append(s.shards, sh)
			shards = append(shards, sh)
		}
		st, err := p3.NewShardedSecretStore(shards, p3.WithShardReplicas(2))
		if err != nil {
			return fail(err)
		}
		composite = st
	} else {
		s.closers = append(s.closers, func() { os.RemoveAll(dir) })
		var shards []p3.SecretStore
		for i := 0; i < 6; i++ {
			disk, err := p3.NewDiskSecretStore(filepath.Join(dir, fmt.Sprintf("shard-%d", i)))
			if err != nil {
				return fail(err)
			}
			sh := newTracedStore(disk, "shard")
			s.shards = append(s.shards, sh)
			shards = append(shards, sh)
		}
		st, err := p3.NewErasureSecretStore(shards, p3.WithErasureScheme(4, 6))
		if err != nil {
			return fail(err)
		}
		s.closers = append(s.closers, func() { st.Close() })
		composite = st
	}
	s.store = newTracedStore(composite, "store")

	opts := []proxy.ProxyOption{proxy.WithMetricsRegistry(reg)}
	if w.variantCache > 0 {
		opts = append(opts, proxy.WithVariantCacheBytes(w.variantCache))
	}
	if w.secretCache > 0 {
		opts = append(opts, proxy.WithSecretCacheBytes(w.secretCache))
	}
	if w.maxInflight > 0 {
		ctrl, err := admission.New(admission.Config{MaxInflight: w.maxInflight}, reg, "proxy")
		if err != nil {
			return fail(err)
		}
		opts = append(opts, proxy.WithAdmission(ctrl))
	}
	if w.similarity {
		ix := similarity.NewIndex(similarity.WithRegistry(reg))
		s.closers = append(s.closers, ix.Close)
		opts = append(opts, proxy.WithSimilarity(ix))
	}
	s.proxy = proxy.New(codec, photos, s.store, opts...)
	s.closers = append(s.closers, s.proxy.Close)
	return s, nil
}
