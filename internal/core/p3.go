package core

import (
	"bytes"
	"fmt"
	"io"

	"p3/internal/jpegx"
	"p3/internal/work"
)

// DefaultThreshold is the paper's recommended operating point: §5.2.1 finds
// the knee of the secret-size curve at T in 15–20, where the secret part is
// about 20% of the original and total overhead 5–10%, and all §5.2.2 privacy
// attacks remain ineffective.
const DefaultThreshold = 15

// Options configures the high-level split.
type Options struct {
	// Threshold is the AC clipping threshold T. 0 means DefaultThreshold.
	// Lower values move more signal into the secret part (more privacy,
	// larger secret); higher values shrink the secret part.
	Threshold int

	// OptimizeHuffman re-derives entropy tables for the two parts. The
	// split shrinks coefficient entropy in both parts (§3.4), so optimized
	// tables recover most of the split's storage overhead. Enabled by
	// default in SplitJPEG via DefaultOptions.
	OptimizeHuffman bool

	// Workers is the bounded worker pool the split and join pipelines fan
	// their band work out on: the threshold split and coefficient
	// recombination run as bands of block rows, the public and secret parts
	// encode (and decode) concurrently, and the encoder's token pass
	// parallelizes per band. nil runs everything sequentially with outputs
	// byte-identical to the parallel runs.
	Workers *work.Pool
}

// DefaultOptions are the options used when SplitJPEG receives nil.
var DefaultOptions = Options{Threshold: DefaultThreshold, OptimizeHuffman: true}

// SplitOutput is the result of splitting a JPEG.
type SplitOutput struct {
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

// SplitJPEG decodes a JPEG, splits it at opts.Threshold, serializes the
// public part as a JPEG and the secret part as an encrypted JPEG container.
// Application markers from the input are dropped from the public part (they
// may leak EXIF data and PSPs strip them anyway).
func SplitJPEG(jpegBytes []byte, key Key, opts *Options) (*SplitOutput, error) {
	var s SplitScratch
	return s.splitSealed(jpegBytes, key, opts)
}

// SplitScratch is the reusable working set of the split pipeline (Split,
// SplitJPEGScratch): the decode destination and decoder state (Huffman
// LUTs, bit reader, MCU buffers), the encode buffers, and the
// public/secret coefficient images a split writes into. The zero value is
// ready to use; a pooled caller hands the same scratch back on every call
// and same-geometry photos recycle all of it.
type SplitScratch struct {
	pubBuf, secBuf bytes.Buffer
	pubIm, secIm   *jpegx.CoeffImage
	srcIm          *jpegx.CoeffImage
	dec            jpegx.DecoderScratch
}

// SplitJPEGScratch is SplitJPEG reusing s across calls, so a long-lived
// caller (e.g. a pooled facade codec) avoids re-allocating the coefficient
// arrays and re-growing encode buffers on every photo. The returned
// SplitOutput owns copies of the bytes it carries; s may be reused
// immediately.
func SplitJPEGScratch(jpegBytes []byte, key Key, opts *Options, s *SplitScratch) (*SplitOutput, error) {
	if s == nil {
		s = new(SplitScratch)
	}
	out, err := s.splitSealed(jpegBytes, key, opts)
	if err != nil {
		return nil, err
	}
	out.PublicJPEG = append(make([]byte, 0, len(out.PublicJPEG)), out.PublicJPEG...)
	return out, nil
}

// splitSealed splits one photo and seals its secret part. The output's
// PublicJPEG aliases s's buffer; the caller decides whether to copy it.
func (s *SplitScratch) splitSealed(jpegBytes []byte, key Key, opts *Options) (*SplitOutput, error) {
	if opts == nil {
		o := DefaultOptions
		opts = &o
	}
	t := opts.Threshold
	if t == 0 {
		t = DefaultThreshold
	}
	pub, sec, err := s.Split(jpegBytes, t, opts)
	if err != nil {
		return nil, err
	}
	blob, err := SealSecret(key, t, sec)
	if err != nil {
		return nil, err
	}
	return &SplitOutput{
		PublicJPEG:    pub,
		SecretBlob:    blob,
		Threshold:     t,
		SecretJPEGLen: len(sec),
	}, nil
}

// Split is the one per-image split pipeline: it decodes a JPEG, drops its
// application markers, splits it at threshold t and serializes both parts
// as JPEGs, leaving the secret part unsealed. opts (non-nil) contributes
// OptimizeHuffman and Workers. The returned slices alias s's buffers and
// stay valid until s is used again. SplitJPEG seals the secret part per
// photo; a video split seals all its frames' parts once per clip.
func (s *SplitScratch) Split(jpegBytes []byte, t int, opts *Options) (pub, sec []byte, err error) {
	if t < 1 || t > MaxThreshold {
		return nil, nil, fmt.Errorf("core: threshold %d out of range [1, %d]", t, MaxThreshold)
	}
	pool := opts.Workers
	// The fused fast path captures both parts' entropy token streams during
	// the decode itself (see jpegx.DecodeBytesSplit): the canonical baseline
	// shape mirrors the split structure symbol for symbol, so serializing a
	// part is table derivation plus a linear token replay — no split walk, no
	// token pass over a part image, no coefficient images for the parts.
	im, cap, err := jpegx.DecodeBytesSplit(jpegBytes, t, s.srcIm, &s.dec)
	if err != nil {
		return nil, nil, fmt.Errorf("core: decoding input: %w", err)
	}
	s.srcIm = im
	im.StripMarkers()
	s.pubBuf.Reset()
	s.secBuf.Reset()
	var encode [2]func() error // public, secret
	if cap != nil {
		defer cap.Release()
		encode = [2]func() error{
			func() error { return cap.EncodePublic(&s.pubBuf, im, opts.OptimizeHuffman) },
			func() error { return cap.EncodeSecret(&s.secBuf, im, opts.OptimizeHuffman) },
		}
	} else {
		// The reference pipeline, for stream shapes the fused capture does
		// not mirror (progressive sources, multi-scan or non-canonical
		// baseline layouts): split the decoded coefficients into part
		// images, then encode each. Its output is byte-identical to the
		// fused path's for any stream both can handle.
		p, sc, err := SplitInto(im, t, s.pubIm, s.secIm, pool)
		if err != nil {
			return nil, nil, err
		}
		s.pubIm, s.secIm = p, sc
		enc := &jpegx.EncodeOptions{OptimizeHuffman: opts.OptimizeHuffman, Workers: pool}
		encode = [2]func() error{
			func() error { return jpegx.EncodeCoeffs(&s.pubBuf, p, enc) },
			func() error { return jpegx.EncodeCoeffs(&s.secBuf, sc, enc) },
		}
	}
	// The parts write separate buffers and only read shared state, so they
	// entropy-encode concurrently.
	err = pool.Do(2, func(i int) error {
		if err := encode[i](); err != nil {
			return fmt.Errorf("core: encoding %s part: %w", [2]string{"public", "secret"}[i], err)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return s.pubBuf.Bytes(), s.secBuf.Bytes(), nil
}

// JoinJPEG reconstructs the original JPEG from an *unprocessed* public part
// and the secret container, recombining exactly in the coefficient domain
// and re-encoding. The output decodes to pixels identical to the original
// image's.
func JoinJPEG(publicJPEG, secretBlob []byte, key Key) ([]byte, error) {
	var buf bytes.Buffer
	if err := JoinJPEGToScratch(&buf, publicJPEG, secretBlob, key, nil, nil); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// JoinJPEGToScratch is JoinJPEG streaming into w, reusing s across calls (nil
// allocates fresh state) and running the pipeline on opts.Workers
// (JoinCoeffs). Output bytes are identical to the sequential join.
func JoinJPEGToScratch(w io.Writer, publicJPEG, secretBlob []byte, key Key, opts *Options, s *ViewScratch) error {
	if s == nil {
		s = new(ViewScratch)
	}
	var pool *work.Pool
	if opts != nil {
		pool = opts.Workers
	}
	threshold, secretJPEG, err := s.open(key, secretBlob)
	if err != nil {
		return err
	}
	return s.JoinCoeffs(w, publicJPEG, secretJPEG, threshold, pool)
}
