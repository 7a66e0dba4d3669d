// Package p3 is a from-scratch Go reproduction of "P3: Toward
// Privacy-Preserving Photo Sharing" (Ra, Govindan, Ortega — NSDI 2013).
//
// P3 splits a JPEG photo, in the quantized-DCT-coefficient domain, into a
// standards-compliant public part that a photo-sharing provider can store
// and resize as usual, and a small encrypted secret part holding the DC
// coefficients plus the signs and excess magnitudes of every AC coefficient
// above a threshold T. Recipients recombine the parts exactly — even after
// the provider has resized, cropped or filtered the public part — using the
// linearity of the transforms (paper Eq. (1) and (2)).
//
// The package is a reusable library built around a Codec:
//
//	key, _ := p3.NewKey()
//	codec, _ := p3.New(key, p3.WithThreshold(20))
//	split, _ := codec.SplitBytes(jpegBytes)                 // public JPEG + sealed secret
//	orig, _ := codec.JoinBytes(split.PublicJPEG, split.SecretBlob)
//
// Codec methods also come in streaming form (Split, Join, JoinProcessed
// taking io.Reader/io.Writer and a context). When the provider transformed
// the public part, describe what it did with a Transform and reconstruct
// pixels:
//
//	t := p3.Resize(130, 98, p3.FilterLanczos).Then(p3.Sharpen(1, 0.5))
//	img, _ := codec.JoinProcessedBytes(servedJPEG, split.SecretBlob, t)
//
// The PhotoService and SecretStore interfaces abstract the two untrusted
// backends (the photo-sharing provider and the blob store); HTTP
// implementations speaking the PSP wire API are bundled, and in-memory or
// custom backends drop in. internal/proxy composes them into the paper's
// client-side trusted proxy.
//
// Video (the paper's §4.2 extension) is supported end to end on a
// Motion-JPEG substrate: PackMJPEG builds a P3MJ clip from JPEG frames,
// SplitVideo splits every frame concurrently into a public clip plus ONE
// sealed secret container, JoinVideo reverses it exactly, and
// JoinVideoFrame seeks a single frame — the shape the proxy serves as
// GET /video/{id}?frame=N.
//
// The subsystems live in internal packages: internal/jpegx (a baseline +
// progressive JPEG codec with coefficient access), internal/core (the
// splitting/reconstruction algorithm), internal/video (the P3MJ container
// and the frame-parallel clip split/join), internal/imaging (linear PSP
// transforms), internal/psp and internal/proxy (the simulated provider and
// the client-side interposition proxy; internal/stack assembles the proxy,
// its backends and optional layers from one Config), internal/cache (the proxy's
// bounded coalescing serving caches), internal/metrics (the observability
// layer behind the proxy's /metrics endpoint), internal/vision (the
// privacy attack suite: Canny, Viola-Jones, SIFT, Eigenfaces), and
// internal/dataset (synthetic evaluation corpora). ARCHITECTURE.md maps
// how the layers compose and names the metric series; see DESIGN.md for
// the full inventory and EXPERIMENTS.md for how to regenerate the
// paper-versus-measured results (including the cmd/p3load fault drills).
package p3
