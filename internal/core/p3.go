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
	// encode (and decode) concurrently, and the encoder's statistics pass
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
	out, err := splitJPEGInto(jpegBytes, key, opts, &s)
	if err != nil {
		return nil, err
	}
	out.PublicJPEG = s.pubBuf.Bytes()
	return out, nil
}

// SplitScratch is the reusable working set of SplitJPEGScratch: the decode
// destination and decoder state (Huffman LUTs, bit reader, MCU buffers), the
// encode buffers, and the public/secret coefficient images a split writes
// into. The zero value is ready to use; a pooled caller hands the same
// scratch back on every call and same-geometry photos recycle all of it.
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
	out, err := splitJPEGInto(jpegBytes, key, opts, s)
	if err != nil {
		return nil, err
	}
	out.PublicJPEG = append(make([]byte, 0, s.pubBuf.Len()), s.pubBuf.Bytes()...)
	return out, nil
}

// splitJPEGInto performs the split, leaving the serialized public part in
// s.pubBuf; the caller decides whether to alias or copy it into the output.
func splitJPEGInto(jpegBytes []byte, key Key, opts *Options, s *SplitScratch) (*SplitOutput, error) {
	if opts == nil {
		o := DefaultOptions
		opts = &o
	}
	t := opts.Threshold
	if t == 0 {
		t = DefaultThreshold
	}
	if t < 1 || t > MaxThreshold {
		return nil, fmt.Errorf("core: threshold %d out of range [1, %d]", t, MaxThreshold)
	}
	pool := opts.Workers
	// The fused fast path captures both parts' entropy token streams during
	// the decode itself (see jpegx.DecodeBytesSplit): the canonical baseline
	// shape mirrors the split structure symbol for symbol, so serializing a
	// part is table derivation plus a linear token replay — no split walk, no
	// statistics pass, no coefficient images for the parts.
	im, cap, err := jpegx.DecodeBytesSplit(jpegBytes, t, s.srcIm, &s.dec)
	if err != nil {
		return nil, fmt.Errorf("core: decoding input: %w", err)
	}
	s.srcIm = im
	im.StripMarkers()
	pubBuf, secBuf := &s.pubBuf, &s.secBuf
	pubBuf.Reset()
	secBuf.Reset()
	if cap != nil {
		defer cap.Release()
		// The two parts write to separate buffers and only read the capture,
		// so they entropy-encode concurrently.
		if err := pool.Do(2, func(i int) error {
			if i == 0 {
				if err := cap.EncodePublic(pubBuf, im, opts.OptimizeHuffman); err != nil {
					return fmt.Errorf("core: encoding public part: %w", err)
				}
				return nil
			}
			if err := cap.EncodeSecret(secBuf, im, opts.OptimizeHuffman); err != nil {
				return fmt.Errorf("core: encoding secret part: %w", err)
			}
			return nil
		}); err != nil {
			return nil, err
		}
	} else if err := s.splitSlow(im, t, opts, pool); err != nil {
		return nil, err
	}
	blob, err := SealSecret(key, t, secBuf.Bytes())
	if err != nil {
		return nil, err
	}
	return &SplitOutput{
		SecretBlob:    blob,
		Threshold:     t,
		SecretJPEGLen: secBuf.Len(),
	}, nil
}

// splitSlow is the reference split pipeline for stream shapes the fused
// capture does not mirror (progressive sources, multi-scan or non-canonical
// baseline layouts): split the decoded coefficients into public and secret
// images, then encode each. Outputs are byte-identical to the fused path for
// any stream both can handle.
func (s *SplitScratch) splitSlow(im *jpegx.CoeffImage, t int, opts *Options, pool *work.Pool) error {
	pub, sec, err := SplitInto(im, t, s.pubIm, s.secIm, pool)
	if err != nil {
		return err
	}
	s.pubIm, s.secIm = pub, sec
	enc := &jpegx.EncodeOptions{OptimizeHuffman: opts.OptimizeHuffman, Workers: pool}
	return pool.Do(2, func(i int) error {
		if i == 0 {
			if err := jpegx.EncodeCoeffs(&s.pubBuf, pub, enc); err != nil {
				return fmt.Errorf("core: encoding public part: %w", err)
			}
			return nil
		}
		if err := jpegx.EncodeCoeffs(&s.secBuf, sec, enc); err != nil {
			return fmt.Errorf("core: encoding secret part: %w", err)
		}
		return nil
	})
}

// JoinJPEG reconstructs the original JPEG from an *unprocessed* public part
// and the secret container, recombining exactly in the coefficient domain
// and re-encoding. The output decodes to pixels identical to the original
// image's.
func JoinJPEG(publicJPEG, secretBlob []byte, key Key) ([]byte, error) {
	var buf bytes.Buffer
	if err := JoinJPEGTo(&buf, publicJPEG, secretBlob, key); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// JoinJPEGTo is JoinJPEG streaming: the reconstructed JPEG is encoded
// directly into w, so callers piping to a file or socket never hold the
// output in memory.
func JoinJPEGTo(w io.Writer, publicJPEG, secretBlob []byte, key Key) error {
	return JoinJPEGToScratch(w, publicJPEG, secretBlob, key, nil, nil)
}

// JoinScratch is the reusable working set of JoinJPEGToScratch: the decode
// destinations and decoder state for the two parts and the reconstructed
// coefficient image. The zero value is ready to use. A scratch must not be
// shared by concurrent joins.
type JoinScratch struct {
	pubIm, secIm, outIm *jpegx.CoeffImage
	pubDec, secDec      jpegx.DecoderScratch
}

// JoinJPEGToScratch is JoinJPEGTo reusing s across calls (nil allocates
// fresh state) and running the pipeline on opts.Workers: the two parts
// decode concurrently (each with its own decoder scratch), the coefficient
// recombination runs as bands of block rows, and the final encode
// parallelizes its statistics pass. Output bytes are identical to the
// sequential join.
func JoinJPEGToScratch(w io.Writer, publicJPEG, secretBlob []byte, key Key, opts *Options, s *JoinScratch) error {
	if s == nil {
		s = new(JoinScratch)
	}
	var pool *work.Pool
	if opts != nil {
		pool = opts.Workers
	}
	threshold, secJPEG, err := OpenSecret(key, secretBlob)
	if err != nil {
		return err
	}
	err = pool.Do(2, func(i int) error {
		if i == 0 {
			im, err := jpegx.DecodeBytesInto(publicJPEG, s.pubIm, &s.pubDec)
			if err != nil {
				return fmt.Errorf("core: decoding public part: %w", err)
			}
			s.pubIm = im
			return nil
		}
		im, err := jpegx.DecodeBytesInto(secJPEG, s.secIm, &s.secDec)
		if err != nil {
			return fmt.Errorf("core: decoding secret part: %w", err)
		}
		s.secIm = im
		return nil
	})
	if err != nil {
		return err
	}
	orig, err := ReconstructCoeffsInto(s.pubIm, s.secIm, threshold, s.outIm, pool)
	if err != nil {
		return err
	}
	s.outIm = orig
	return jpegx.EncodeCoeffs(w, orig, &jpegx.EncodeOptions{OptimizeHuffman: true, Workers: pool})
}
