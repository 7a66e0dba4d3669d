package core

import (
	"bytes"
	"fmt"
	"io"

	"p3/internal/imaging"
	"p3/internal/jpegx"
	"p3/internal/work"
)

// ViewScratch is the working set of one join, kept for the next: the opened
// secret part's JPEG, both parts' decoder state and coefficient images and,
// for a cold view (Join, then Encode), the public part's planes and their
// chroma temporaries, the scatter's buffers, the downsample buffer, the
// encoder's statistics tokens and the encode buffer; for JoinCoeffs, the
// recombined coefficients. Same-geometry views through one scratch allocate
// little beyond the effective secret's frequency rows and the weights. The
// zero value is ready to use; a ViewScratch must not be shared by concurrent
// joins, and callers recycle it (the proxy through a free list, the Codec
// through a sync.Pool).
type ViewScratch struct {
	plain                []byte
	pubIm, secIm, origIm *jpegx.CoeffImage
	pubDec, secDec       jpegx.DecoderScratch
	pub                  jpegx.PlanarImage
	planar               jpegx.PlanarScratch
	freq                 imaging.FreqScratch
	down                 []float64
	tokens               []uint32
	enc                  bytes.Buffer
}

// open authenticates and decrypts secretBlob with key into s, returning the
// splitting threshold and the secret part's JPEG.
func (s *ViewScratch) open(key Key, secretBlob []byte) (int, []byte, error) {
	threshold, plain, err := openSecretInto(key, secretBlob, s.plain)
	if err == nil {
		s.plain = plain
	}
	return threshold, plain, err
}

// decode decodes both parts into s.pubIm and s.secIm, concurrently on pool.
func (s *ViewScratch) decode(publicJPEG, secretJPEG []byte, pool *work.Pool) error {
	return pool.Do(2, func(i int) error {
		if i == 0 {
			im, err := jpegx.DecodeBytesInto(publicJPEG, s.pubIm, &s.pubDec)
			if err != nil {
				return fmt.Errorf("core: decoding public part: %w", err)
			}
			s.pubIm = im
			return nil
		}
		im, err := jpegx.DecodeBytesInto(secretJPEG, s.secIm, &s.secDec)
		if err != nil {
			return fmt.Errorf("core: decoding secret part: %w", err)
		}
		s.secIm = im
		return nil
	})
}

// JoinCoeffs writes to w the JPEG an *unprocessed* public part and its
// opened secret part (split at threshold) recombine to, exactly, in the
// coefficient domain: the parts decode concurrently and the recombination
// runs as bands of block rows on pool, and the output bytes are the same
// for every pool.
func (s *ViewScratch) JoinCoeffs(w io.Writer, publicJPEG, secretJPEG []byte, threshold int, pool *work.Pool) error {
	if err := s.decode(publicJPEG, secretJPEG, pool); err != nil {
		return err
	}
	orig, err := ReconstructCoeffsInto(s.pubIm, s.secIm, threshold, s.origIm, pool)
	if err != nil {
		return err
	}
	s.origIm = orig
	return jpegx.EncodeCoeffs(w, orig, &jpegx.EncodeOptions{OptimizeHuffman: true, Workers: pool})
}

// ViewOp returns the operator a served rendition applied to the original
// photo, given the original's size (the secret part's) and the served public
// part's. An error it returns ends the view unchanged.
type ViewOp func(origW, origH, servedW, servedH int) (imaging.Op, error)

// Join reconstructs one served rendition: it opens secretBlob with key,
// decodes both parts (concurrently on pool), asks opFor for the rendition's
// operator and reverses it per Eq. (2) — linear, or linear followed by an
// invertible pointwise remap (§3.3, imaging.SplitRemap). A linear
// reconstruction is written over the decoded public part's planes in place
// (SecretPlanes.Reconstruct's samples, bit for bit). Those planes are s's own
// unless fresh: the result then stays valid only until s's next Join or
// Encode, and a caller whose result outlives the view passes fresh. nil pool
// runs sequentially; the result is the same either way.
func (s *ViewScratch) Join(key Key, publicJPEG, secretBlob []byte, opFor ViewOp, fresh bool, pool *work.Pool) (*jpegx.PlanarImage, error) {
	threshold, plain, err := s.open(key, secretBlob)
	if err != nil {
		return nil, err
	}
	if err := s.decode(publicJPEG, plain, pool); err != nil {
		return nil, err
	}
	pubIm, sec := s.pubIm, s.secIm
	op, err := opFor(sec.Width, sec.Height, pubIm.Width, pubIm.Height)
	if err != nil {
		return nil, err
	}
	var linear imaging.Op = op
	var remap imaging.Invertible
	if !op.Linear() {
		var ok bool
		if linear, remap, ok = imaging.SplitRemap(op); !ok {
			return nil, fmt.Errorf("core: operator %s is neither linear nor linear-plus-invertible-remap", op)
		}
	}
	dst := &s.pub
	if fresh && remap == nil { // a remapped result is a fresh image anyway
		dst = nil
	}
	pub := pubIm.ToPlanarInto(dst, &s.planar, pool)
	return DeriveSecretPlanesPool(sec, threshold, pool).reconstructOnto(pub, linear, remap, &s.freq)
}

// Encode serializes pix — typically this scratch's own Join result — as a
// JPEG under opts, returned in a slice of exactly its length that does not
// alias s. The forward transform writes into the public part's coefficient
// image, which Join no longer needs once the planes are built, and the
// stream into s's encode buffer; a sequential token pass keeps its tokens in
// s too.
func (s *ViewScratch) Encode(pix *jpegx.PlanarImage, opts *jpegx.PixelEncodeOptions) ([]byte, error) {
	im, err := pix.ToCoeffsInto(s.pubIm, opts.Quality, opts.Subsampling, &s.down)
	if err != nil {
		return nil, err
	}
	s.pubIm = im
	s.enc.Reset()
	eo := opts.EncodeOptions
	eo.Tokens = &s.tokens
	if err := jpegx.EncodeCoeffs(&s.enc, im, &eo); err != nil {
		return nil, err
	}
	return append(make([]byte, 0, s.enc.Len()), s.enc.Bytes()...), nil
}
