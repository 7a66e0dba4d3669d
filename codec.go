package p3

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"p3/internal/core"
	"p3/internal/imaging"
	"p3/internal/work"
)

// ErrAuth reports a secret container that failed authentication: wrong key,
// truncation, or tampering by the storage provider or an eavesdropper.
// Returned (possibly wrapped) by the Join methods; test with errors.Is.
var ErrAuth = core.ErrAuth

// SplitResult carries the two parts of a split photo.
type SplitResult struct {
	// PublicJPEG is the standards-compliant public part, safe to upload to
	// an untrusted PSP.
	PublicJPEG []byte

	// SecretBlob is the encrypted secret container for the storage
	// provider (also untrusted; the blob is AES-encrypted and MACed).
	SecretBlob []byte

	// Threshold echoes the T used.
	Threshold int

	// SecretJPEGLen is the size of the secret part before encryption,
	// used by the storage-overhead accounting of Fig. 5.
	SecretJPEGLen int
}

// Codec is a reusable P3 split/reconstruct engine bound to one key and one
// operating point. It is safe for concurrent use, and a long-lived Codec
// recycles its decode/encode scratch buffers across photos, allocating far
// less per call than the package-level convenience functions.
//
//	codec, err := p3.New(key, p3.WithThreshold(20))
//	split, err := codec.SplitBytes(jpegBytes)
//	orig, err := codec.JoinBytes(split.PublicJPEG, split.SecretBlob)
type Codec struct {
	key     core.Key
	cfg     config
	pool    *work.Pool
	scratch sync.Pool // *scratch
}

// scratch holds the per-call working set a Codec recycles: the streaming
// read buffers and the core split and join scratches (decoder state,
// coefficient images, pixel planes, encode buffers; a processed join's
// reconstructed planes escape to the caller fresh).
type scratch struct {
	in    bytes.Buffer // Split input
	pub   bytes.Buffer // Join/JoinProcessed public-part input
	sec   bytes.Buffer // Join/JoinProcessed secret-part input
	split core.SplitScratch
	join  core.ViewScratch
}

// New builds a Codec for key. With no options it uses the paper's
// recommended operating point (T = DefaultThreshold, optimized entropy
// coding) and fans each call's work out over runtime.GOMAXPROCS(0) cores
// (see WithParallelism).
func New(key Key, opts ...Option) (*Codec, error) {
	cfg := defaultConfig()
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	c := &Codec{key: core.Key(key), cfg: cfg, pool: work.New(cfg.parallelism)}
	c.scratch.New = func() any { return new(scratch) }
	return c, nil
}

// Key returns the key the Codec was built with.
func (c *Codec) Key() Key { return Key(c.key) }

// Threshold returns the splitting threshold the Codec uses.
func (c *Codec) Threshold() int { return c.cfg.threshold }

// Parallelism returns the worker bound the Codec runs its band pipeline at.
func (c *Codec) Parallelism() int { return c.cfg.parallelism }

func (c *Codec) coreOptions() *core.Options {
	return &core.Options{Threshold: c.cfg.threshold, OptimizeHuffman: c.cfg.optimizeHuffman, Workers: c.pool}
}

func (c *Codec) getScratch() *scratch  { return c.scratch.Get().(*scratch) }
func (c *Codec) putScratch(s *scratch) { c.scratch.Put(s) }

// Split reads a JPEG from r and divides it into a public part (safe to
// upload to an untrusted photo-sharing provider) and a sealed secret part
// (for any untrusted blob store).
func (c *Codec) Split(ctx context.Context, r io.Reader) (*SplitResult, error) {
	s := c.getScratch()
	defer c.putScratch(s)
	s.in.Reset()
	if _, err := s.in.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("p3: reading input: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c.splitBytes(s.in.Bytes(), s)
}

// SplitBytes is Split for an in-memory JPEG.
func (c *Codec) SplitBytes(jpegBytes []byte) (*SplitResult, error) {
	s := c.getScratch()
	defer c.putScratch(s)
	return c.splitBytes(jpegBytes, s)
}

func (c *Codec) splitBytes(jpegBytes []byte, s *scratch) (*SplitResult, error) {
	defer observeSince(splitSeconds, time.Now())
	out, err := core.SplitJPEGScratch(jpegBytes, c.key, c.coreOptions(), &s.split)
	if err != nil {
		return nil, err
	}
	return &SplitResult{
		PublicJPEG:    out.PublicJPEG,
		SecretBlob:    out.SecretBlob,
		Threshold:     out.Threshold,
		SecretJPEGLen: out.SecretJPEGLen,
	}, nil
}

// SplitBatch splits many JPEGs in one call, fanning the photos out over the
// Codec's worker pool; each photo's own two-part encode then runs within the
// same global bound, so a batch saturates the configured parallelism without
// oversubscribing it. Results align with the inputs. On error the batch
// still attempts every photo (so a caller can salvage the successes from the
// returned slice); the error reported is the lowest-index failure, and
// failed entries are nil.
func (c *Codec) SplitBatch(jpegs [][]byte) ([]*SplitResult, error) {
	out := make([]*SplitResult, len(jpegs))
	err := c.pool.Do(len(jpegs), func(i int) error {
		s := c.getScratch()
		defer c.putScratch(s)
		r, err := c.splitBytes(jpegs[i], s)
		if err != nil {
			return fmt.Errorf("p3: photo %d: %w", i, err)
		}
		out[i] = r
		return nil
	})
	return out, err
}

// Join reads an *unprocessed* public part and the sealed secret part and
// writes the reconstructed JPEG to w. The output decodes to pixels identical
// to the original image.
func (c *Codec) Join(ctx context.Context, public, secret io.Reader, w io.Writer) error {
	s := c.getScratch()
	defer c.putScratch(s)
	s.pub.Reset()
	if _, err := s.pub.ReadFrom(public); err != nil {
		return fmt.Errorf("p3: reading public part: %w", err)
	}
	s.sec.Reset()
	if _, err := s.sec.ReadFrom(secret); err != nil {
		return fmt.Errorf("p3: reading secret part: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	defer observeSince(joinSeconds, time.Now())
	return core.JoinJPEGToScratch(w, s.pub.Bytes(), s.sec.Bytes(), c.key, c.coreOptions(), &s.join)
}

// JoinBytes is Join for in-memory parts, returning the reconstructed JPEG.
func (c *Codec) JoinBytes(publicJPEG, secretBlob []byte) ([]byte, error) {
	s := c.getScratch()
	defer c.putScratch(s)
	defer observeSince(joinSeconds, time.Now())
	var out bytes.Buffer
	if err := core.JoinJPEGToScratch(&out, publicJPEG, secretBlob, c.key, c.coreOptions(), &s.join); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// JoinProcessed reconstructs pixels when the provider applied the transform
// t (resize, crop, filter, gamma, or a composition) to the public part. The
// transform must be linear, or linear followed by a single trailing
// invertible pointwise remap such as Gamma (the paper's §3.3 extension).
func (c *Codec) JoinProcessed(ctx context.Context, public, secret io.Reader, t Transform) (*Image, error) {
	s := c.getScratch()
	defer c.putScratch(s)
	s.pub.Reset()
	if _, err := s.pub.ReadFrom(public); err != nil {
		return nil, fmt.Errorf("p3: reading public part: %w", err)
	}
	s.sec.Reset()
	if _, err := s.sec.ReadFrom(secret); err != nil {
		return nil, fmt.Errorf("p3: reading secret part: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c.joinProcessed(s.pub.Bytes(), s.sec.Bytes(), t, s)
}

// JoinProcessedBytes is JoinProcessed for in-memory parts.
func (c *Codec) JoinProcessedBytes(publicJPEG, secretBlob []byte, t Transform) (*Image, error) {
	s := c.getScratch()
	defer c.putScratch(s)
	return c.joinProcessed(publicJPEG, secretBlob, t, s)
}

// TransformError reports a transform that cannot apply to the photo it was
// given for: a crop that misses the image, or a resize to a non-positive
// size. Returned by the JoinProcessed methods; test with errors.As.
type TransformError struct {
	Transform     Transform
	Width, Height int // the photo's dimensions
	Err           error
}

// Error implements the error interface.
func (e *TransformError) Error() string {
	return fmt.Sprintf("p3: transform %s does not apply to a %dx%d photo: %v", e.Transform, e.Width, e.Height, e.Err)
}

// Unwrap returns the stage-level cause.
func (e *TransformError) Unwrap() error { return e.Err }

func (c *Codec) joinProcessed(publicJPEG, secretBlob []byte, t Transform, s *scratch) (*Image, error) {
	defer observeSince(joinProcessedSeconds, time.Now())
	op := t.op()
	pix, err := s.join.Join(c.key, publicJPEG, secretBlob, func(w, h, _, _ int) (imaging.Op, error) {
		// A bad rectangle or size from the caller surfaces as an error
		// instead of a panic inside the pixel pipeline.
		if _, _, err := imaging.OutputSize(op, w, h); err != nil {
			return nil, &TransformError{Transform: t, Width: w, Height: h, Err: err}
		}
		return op, nil
	}, true, c.pool)
	if err != nil {
		return nil, err
	}
	return &Image{pix: pix}, nil
}
