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
	"p3/internal/jpegx"
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
// read buffers, the core split and join scratches (decoder state,
// coefficient images, encode buffers), and the decode state of the
// processed-join path.
type scratch struct {
	in    bytes.Buffer // Split input
	pub   bytes.Buffer // Join/JoinProcessed public-part input
	sec   bytes.Buffer // Join/JoinProcessed secret-part input
	split core.SplitScratch
	join  core.JoinScratch

	// JoinProcessed decode state: the two parts decode into reusable images
	// through reusable decoder scratches (the pixel planes derived from them
	// escape to the caller and are allocated fresh).
	pubIm, secIm   *jpegx.CoeffImage
	pubDec, secDec jpegx.DecoderScratch
	pubRd, secRd   bytes.Reader
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

// JoinProcessedMulti reconstructs several served renditions of one photo —
// the shape of a feed prefetch (thumbnail + small + full) — decoding the
// sealed secret part ONCE and folding it into its effective secret once,
// instead of paying the secret decode + fold per rendition as repeated
// JoinProcessed calls would. publicJPEGs[i] is the rendition served after
// the provider applied ts[i]; results align with the inputs. Every
// transform must be linear (resize/crop/blur/sharpen compositions); for a
// trailing gamma use JoinProcessed per rendition.
func (c *Codec) JoinProcessedMulti(publicJPEGs [][]byte, secretBlob []byte, ts []Transform) ([]*Image, error) {
	defer observeSince(joinProcessedSeconds, time.Now())
	if len(publicJPEGs) != len(ts) {
		return nil, fmt.Errorf("p3: %d public renditions but %d transforms", len(publicJPEGs), len(ts))
	}
	threshold, secJPEG, err := core.OpenSecret(c.key, secretBlob)
	if err != nil {
		return nil, err
	}
	if len(publicJPEGs) == 0 {
		return nil, nil
	}
	ops := make([]imaging.Op, len(ts))
	for i, t := range ts {
		op := t.op()
		if !op.Linear() {
			return nil, fmt.Errorf("p3: transform %s is not linear; use JoinProcessed for remapped renditions", t)
		}
		ops[i] = op
	}
	// The secret part and every public rendition decode concurrently; the
	// decoded images escape into the reconstruction, so none use the pooled
	// scratch.
	var sec *jpegx.CoeffImage
	publics := make([]*jpegx.PlanarImage, len(publicJPEGs))
	err = c.pool.Do(len(publicJPEGs)+1, func(i int) error {
		if i == 0 {
			im, err := jpegx.DecodeBytes(secJPEG)
			if err != nil {
				return fmt.Errorf("p3: decoding secret part: %w", err)
			}
			sec = im
			return nil
		}
		im, err := jpegx.DecodeBytes(publicJPEGs[i-1])
		if err != nil {
			return fmt.Errorf("p3: decoding rendition %d: %w", i-1, err)
		}
		publics[i-1] = im.ToPlanarPool(nil)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, t := range ts {
		if err := checkTransform(t, sec); err != nil {
			return nil, err
		}
	}
	pixes, err := core.ReconstructPixelsMulti(publics, sec, threshold, ops, c.pool)
	if err != nil {
		return nil, err
	}
	out := make([]*Image, len(pixes))
	for i, pix := range pixes {
		out[i] = &Image{pix: pix}
	}
	return out, nil
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

// checkTransform verifies t has something to produce from the photo whose
// secret part is sec, so a bad rectangle or size from the caller surfaces as
// an error instead of a panic inside the pixel pipeline.
func checkTransform(t Transform, sec *jpegx.CoeffImage) error {
	if _, _, err := imaging.OutputSize(t.op(), sec.Width, sec.Height); err != nil {
		return &TransformError{Transform: t, Width: sec.Width, Height: sec.Height, Err: err}
	}
	return nil
}

func (c *Codec) joinProcessed(publicJPEG, secretBlob []byte, t Transform, s *scratch) (*Image, error) {
	defer observeSince(joinProcessedSeconds, time.Now())
	threshold, secJPEG, err := core.OpenSecret(c.key, secretBlob)
	if err != nil {
		return nil, err
	}
	// The two parts decode concurrently, each through its own pooled
	// decoder scratch.
	err = c.pool.Do(2, func(i int) error {
		if i == 0 {
			s.pubRd.Reset(publicJPEG)
			im, err := jpegx.DecodeInto(&s.pubRd, s.pubIm, &s.pubDec)
			if err != nil {
				return fmt.Errorf("p3: decoding public part: %w", err)
			}
			s.pubIm = im
			return nil
		}
		s.secRd.Reset(secJPEG)
		im, err := jpegx.DecodeInto(&s.secRd, s.secIm, &s.secDec)
		if err != nil {
			return fmt.Errorf("p3: decoding secret part: %w", err)
		}
		s.secIm = im
		return nil
	})
	// Release the caller's public part and the decrypted secret plaintext;
	// the pooled scratch must not keep either reachable between calls.
	s.pubRd.Reset(nil)
	s.secRd.Reset(nil)
	if err != nil {
		return nil, err
	}
	pubIm, sec := s.pubIm, s.secIm
	if err := checkTransform(t, sec); err != nil {
		return nil, err
	}
	op := t.op()
	var pix *jpegx.PlanarImage
	if op.Linear() {
		pix, err = core.ReconstructPixelsPool(pubIm.ToPlanarPool(c.pool), sec, threshold, op, c.pool)
	} else if linear, remap, ok := t.splitRemap(); ok {
		pix, err = core.ReconstructRemappedPool(pubIm.ToPlanarPool(c.pool), sec, threshold, linear, remap, c.pool)
	} else {
		return nil, fmt.Errorf("p3: transform %s is neither linear nor linear-plus-invertible-remap", t)
	}
	if err != nil {
		return nil, err
	}
	return &Image{pix: pix}, nil
}
