// Dedup and similarity surface of the proxy.
//
// The proxy stays a pure consumer here too: deduplication is a
// PhotoService middleware (internal/dedup) handed in as the photos
// backend, so Upload/Download/Delete run the exact same code with dedup
// on or off — the differential tests rely on that. The similarity index
// (internal/similarity) is injected with WithSimilarity; every photo
// upload feeds the public part to its background ingest, and GET
// /similar/{id}?d=N answers hamming-radius queries over public parts
// without ever touching a secret part.
package proxy

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"p3"
	"p3/internal/dedup"
	"p3/internal/similarity"
)

// DefaultSimilarDistance is the hamming radius used when a /similar
// query names none.
const DefaultSimilarDistance = 10

// WithSimilarity attaches a perceptual-hash index: uploads enqueue
// their public part for background hashing, GET /similar/{id}?d=N
// serves neighbor queries, and Delete removes the photo from the index.
// The caller owns the index (and its Close).
func WithSimilarity(ix *similarity.Index) ProxyOption {
	return func(c *proxyConfig) { c.similarity = ix }
}

// dedupStatser detects a dedup layer in the photos backend for the /stats
// view; satisfied by *dedup.Store. The proxy never names the concrete
// backend, it only asks whether stats exist. (The layer's /metrics series
// are its own: dedup.New exports them.)
type dedupStatser interface {
	DedupStats() dedup.Stats
}

// errNoSimilarity answers /similar when no index was configured.
var errNoSimilarity = errors.New("proxy: similarity index not enabled")

// Similar returns the indexed photos within maxDist hamming bits of
// id's public-part perceptual hash, nearest first, excluding id itself.
// A photo whose ingest is still queued becomes visible after an index
// flush, so an upload immediately followed by /similar never 404s.
func (p *Proxy) Similar(ctx context.Context, id string, maxDist int) (_ []similarity.Match, err error) {
	defer p.similarOp.observe(time.Now(), &err)
	if p.sim == nil {
		return nil, &RequestError{Err: errNoSimilarity}
	}
	if err := validateID(id); err != nil {
		return nil, err
	}
	if maxDist < 0 || maxDist > 64 {
		return nil, &RequestError{Err: fmt.Errorf("proxy: similarity distance %d outside [0, 64]", maxDist)}
	}
	matches, ok := p.sim.QueryID(id, maxDist)
	if !ok {
		p.sim.Flush()
		if matches, ok = p.sim.QueryID(id, maxDist); !ok {
			return nil, &p3.NotFoundError{Kind: "photo", ID: id}
		}
	}
	return matches, nil
}

// Delete removes a photo end to end: the sealed secret part (when the
// store supports deletion), every cache entry serving it, its
// similarity index entry, and finally the public part — which, behind a
// dedup layer, only drops one reference and touches the PSP when the
// last reference goes.
//
// The secret part goes first: a failure midway then leaves a photo that
// cannot be reconstructed, never a deleted public part with a live
// secret dangling in the blob store.
func (p *Proxy) Delete(ctx context.Context, id string) (err error) {
	defer p.deleteOp.observe(time.Now(), &err)
	if err := validateID(id); err != nil {
		return err
	}
	if sd, ok := p.store.(p3.SecretDeleter); ok {
		if err := sd.DeleteSecret(ctx, id); err != nil && !p3.IsNotFound(err) {
			return err
		}
	}
	p.secrets.Delete(id)
	p.dims.Delete(id)
	p.variants.PurgeMatching(func(key string) bool {
		kid, _, ok := parseVariantKey(key)
		return ok && kid == id
	})
	if p.sim != nil {
		p.sim.Remove(id)
	}
	if _, err := p.deletePublicPart(ctx, id); err != nil {
		return err
	}
	return nil
}

// serveSimilarHTTP answers GET /similar/{id}?d=N with the neighbor list
// as JSON.
func (p *Proxy) serveSimilarHTTP(ctx context.Context, id string, dq string) (any, error) {
	d := DefaultSimilarDistance
	if dq != "" {
		v, err := strconv.Atoi(dq)
		if err != nil {
			return nil, &RequestError{Err: fmt.Errorf("proxy: similarity distance %q is not an integer", dq)}
		}
		d = v
	}
	matches, err := p.Similar(ctx, id, d)
	if err != nil {
		return nil, err
	}
	if matches == nil {
		matches = []similarity.Match{}
	}
	return map[string]any{"id": id, "d": d, "matches": matches}, nil
}
