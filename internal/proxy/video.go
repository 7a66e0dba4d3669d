package proxy

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"p3"
	"p3/internal/admission"
)

// Video serving (paper §4.2): the proxy serves P3MJ Motion-JPEG clips the
// same way it serves photos — split on the way up, reconstructed on the
// way down — with one structural difference. The simulated PSP ingests
// only still JPEGs, so the clip's *public* stream is stored alongside the
// sealed secret container in the blob-store backends (disk, sharded,
// HTTP, …). That is safe — the public stream is non-sensitive by
// construction — and it exercises exactly the replicated, repairable
// large-blob storage the video workload needs: both parts of a clip ride
// the consistent-hash ring, replicas and read-repair included.
//
// A clip upload assigns a proxy-generated ID and stores two blobs,
// "<id>.pub" (the public P3MJ stream) and "<id>.sec" (the sealed secret
// container). Downloads come in two shapes:
//
//   - GET /video/{id} joins the whole clip back into a P3MJ stream.
//   - GET /video/{id}?frame=N seeks one frame: a single unseal plus one
//     frame's decode → recombine → encode, returned as a standalone JPEG.
//
// Both shapes are served through the bounded variant cache, keyed on the
// clip ID plus the *parsed* frame index (-1 = whole clip; `frame` is the
// only rendition parameter the video path accepts, and other query
// parameters are ignored — a new parameter MUST be added to appendVideoKey
// before it may affect the response). The fan-out of a popular clip — or
// of one hot frame inside it — is thus absorbed in memory and concurrent
// misses coalesce into one reconstruction. The two stored blobs are
// cached and coalesced by the secrets cache under their blob names, so a
// frame-seek burst across N frames costs the store at most two fetches.

// DefaultVideoMaxBytes bounds accepted video uploads; WithVideoMaxBytes
// overrides it.
const DefaultVideoMaxBytes int64 = 256 << 20

// videoPubSuffix and videoSecSuffix name a clip's two blobs in the secret
// store.
const (
	videoPubSuffix = ".pub"
	videoSecSuffix = ".sec"
)

// WithVideoMaxBytes bounds how large a video clip (serialized P3MJ bytes)
// the proxy accepts for upload. Values < 1 are clamped to 1.
func WithVideoMaxBytes(n int64) ProxyOption {
	return func(c *proxyConfig) { c.videoMaxBytes = max(n, 1) }
}

// newVideoID mints a proxy-assigned clip ID. Photos are named by the PSP;
// clips never touch the PSP, so the proxy names them itself with 72 random
// bits, hex-encoded under a "v" prefix.
func newVideoID() (string, error) {
	var b [9]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("proxy: minting video id: %w", err)
	}
	return "v" + hex.EncodeToString(b[:]), nil
}

// UploadVideo splits a P3MJ clip and stores its two parts in the blob
// store under a proxy-assigned clip ID: the public stream at "<id>.pub"
// and the sealed secret container at "<id>.sec". Both caches are warmed
// from the upload. Returns the clip ID and its frame count.
func (p *Proxy) UploadVideo(ctx context.Context, streamBytes []byte) (_ string, _ int, err error) {
	defer p.videoUpload.observe(clock(), &err)
	if int64(len(streamBytes)) > p.videoMaxBytes {
		return "", 0, &RequestError{Err: fmt.Errorf("proxy: video of %d bytes over the %d-byte limit", len(streamBytes), p.videoMaxBytes)}
	}
	release, err := p.admit(ctx, admission.Cold)
	if err != nil {
		return "", 0, err
	}
	defer release()
	out, err := p.codec.SplitVideoBytes(streamBytes)
	if err != nil {
		// A malformed container or undecodable frame is the client's
		// problem, not the backends'.
		return "", 0, &RequestError{Err: err}
	}
	id, err := newVideoID()
	if err != nil {
		return "", 0, err
	}
	if err := p.store.PutSecret(ctx, id+videoPubSuffix, out.PublicMJPEG); err != nil {
		return "", 0, fmt.Errorf("proxy: storing public video stream for %q: %w", id, err)
	}
	if err := p.store.PutSecret(ctx, id+videoSecSuffix, out.SecretBlob); err != nil {
		perr := &PartialUploadError{ID: id, Err: err}
		if cleaned, cerr := p.deleteVideoBlob(ctx, id+videoPubSuffix); cleaned {
			perr.Cleaned = true
		} else {
			perr.CleanupErr = cerr
		}
		return "", 0, perr
	}
	p.secrets.Put(id+videoPubSuffix, exact(out.PublicMJPEG))
	p.secrets.Put(id+videoSecSuffix, exact(out.SecretBlob))
	return id, out.Frames, nil
}

// deleteVideoBlob best-effort removes an orphaned clip blob (when the
// store supports deletion), detached from ctx's cancellation.
func (p *Proxy) deleteVideoBlob(ctx context.Context, name string) (cleaned bool, err error) {
	del, ok := p.store.(p3.SecretDeleter)
	if !ok {
		return false, nil
	}
	if err := del.DeleteSecret(context.WithoutCancel(ctx), name); err != nil {
		return false, err
	}
	return true, nil
}

// videoParts fetches a clip's two stored blobs through the secrets cache:
// repeat views hit memory and concurrent misses coalesce per blob.
func (p *Proxy) videoParts(ctx context.Context, id string) (pub, sec []byte, err error) {
	pub, err = p.secrets.GetOrLoad(ctx, id+videoPubSuffix, func(ctx context.Context) ([]byte, error) {
		b, err := p.store.GetSecret(ctx, id+videoPubSuffix)
		return exact(b), err
	})
	if err != nil {
		return nil, nil, err
	}
	sec, err = p.secrets.GetOrLoad(ctx, id+videoSecSuffix, func(ctx context.Context) ([]byte, error) {
		b, err := p.store.GetSecret(ctx, id+videoSecSuffix)
		return exact(b), err
	})
	if err != nil {
		return nil, nil, err
	}
	return pub, sec, nil
}

// videoKeyPrefix marks clip entries in the variant cache: it keeps them
// from ever colliding with photo-variant keys (those start with a decimal
// epoch) and lets Calibrate's purge spare them.
const videoKeyPrefix = "video\x00"

// appendVideoKey appends the variant-cache key of one reconstructed clip
// rendition to b, keyed on the *parsed* frame index (-1 = whole clip) so
// equivalent spellings of one frame ("1", "01", "+1") share an entry.
// Clip reconstruction does not depend on the calibrated pipeline, so the
// calibration epoch is not part of the key; the id is the cache's group
// field, as in a photo key.
func appendVideoKey(b []byte, id string, frame int) []byte {
	b = append(append(append(b, videoKeyPrefix...), id...), 0)
	if frame >= 0 {
		b = strconv.AppendInt(b, int64(frame), 10)
	}
	return b
}

// DownloadVideo serves a clip rendition: the whole reconstructed P3MJ
// stream, or — with ?frame=N — frame N as a standalone JPEG. Results come
// from the bounded variant cache when possible; concurrent requests for
// one (id, frame) run the fetch+join once. Callers must treat the
// returned bytes as immutable — they are shared with the cache.
func (p *Proxy) DownloadVideo(ctx context.Context, id string, q url.Values) (_ []byte, err error) {
	defer p.videoDownload.observe(clock(), &err)
	if err := validateID(id); err != nil {
		return nil, err
	}
	frame := -1 // whole clip
	if fs := q.Get("frame"); fs != "" {
		n, err := strconv.Atoi(fs)
		if err != nil || n < 0 {
			return nil, &RequestError{Err: fmt.Errorf("proxy: bad frame %q", fs)}
		}
		frame = n
	}
	var buf [128]byte
	key := appendVideoKey(buf[:0], id, frame)
	b, hit, release, err := p.admitVariant(ctx, key)
	if err != nil {
		return nil, err
	}
	defer release()
	if hit {
		return b, nil
	}
	return p.variants.GetOrLoad(ctx, string(key), func(ctx context.Context) ([]byte, error) {
		pub, sec, err := p.videoParts(ctx, id)
		if err != nil {
			return nil, err
		}
		var b []byte
		if frame < 0 {
			b, err = p.codec.JoinVideoBytes(pub, sec)
		} else {
			b, err = p.codec.JoinVideoFrame(pub, sec, frame)
		}
		return exact(b), err
	})
}

// serveVideoHTTP handles the /video/* routes for ServeHTTP: POST
// /video/upload ingests a P3MJ clip and responds {"id": ..., "frames": N};
// GET /video/{id}[?frame=N] serves a reconstruction.
func (p *Proxy) serveVideoHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/video/upload":
		body, err := io.ReadAll(io.LimitReader(r.Body, p.videoMaxBytes+1))
		if err != nil {
			http.Error(w, "read error", http.StatusBadRequest)
			return
		}
		id, frames, err := p.UploadVideo(r.Context(), body)
		if err != nil {
			httpError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"id": id, "frames": frames})
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/video/"):
		id := strings.TrimPrefix(r.URL.Path, "/video/")
		b, err := p.DownloadVideo(r.Context(), id, r.URL.Query())
		if err != nil {
			httpError(w, err)
			return
		}
		if r.URL.Query().Get("frame") != "" {
			w.Header().Set("Content-Type", "image/jpeg")
		} else {
			w.Header().Set("Content-Type", "video/x-p3-mjpeg")
		}
		w.Write(b)
	default:
		http.NotFound(w, r)
	}
}

// videoStatusFor refines statusFor with the video-path error types: a
// frame index past the end of a clip is a 404 (the rendition does not
// exist), and a clip blob that unpacks to garbage is backend corruption
// (502), which the default already covers.
func videoStatusFor(err error) (int, bool) {
	var re *p3.FrameRangeError
	if errors.As(err, &re) {
		return http.StatusNotFound, true
	}
	return 0, false
}
