package admission

// Client identity parsing. The admission layer keys its storm rates by a
// small opaque client string derived from the request. The header is
// attacker-controlled input: an unbounded or attacker-minted key would let
// one client smear its traffic across endless identities (defeating the
// storm clamp) or fill the detector's key table with megabyte keys, so
// parsing is strictly bounding and normalizing — never trusting.

import (
	"context"
	"net"
	"strings"
)

// ClientKeyHeader is the request header a trusted deployment can use to
// carry a client identity through the proxy (set by an upstream
// terminator, like X-Forwarded-For). Absent or unusable, the remote
// address decides.
const ClientKeyHeader = "X-P3-Client"

// maxClientKeyLen bounds derived client keys. Long enough for any real
// identity token; short enough that a hostile header cannot inflate the
// storm detector's per-key cost.
const maxClientKeyLen = 64

// anonymousKey is the identity every request with no derivable identity
// shares. Grouping the unidentifiable under one key is deliberate: an
// attacker who can strip their identity should compete with every other
// anonymous client, not get a fresh key each.
const anonymousKey = "anon"

// ClientKey derives the admission identity from the client-key header
// value and the connection's remote address. The header wins when it
// yields a usable token: the first comma-separated element (proxies
// append, client-supplied first), trimmed, truncated to maxClientKeyLen,
// with control and non-ASCII bytes rejected (hostile headers fall through
// to the address rather than minting unprintable identities). The
// fallback is the remote address's host part, so NATed apps behind one
// address share a key. Always returns a non-empty key of at most
// maxClientKeyLen bytes.
func ClientKey(header, remoteAddr string) string {
	if k, ok := sanitizeHeaderKey(header); ok {
		return k
	}
	if host, _, err := net.SplitHostPort(remoteAddr); err == nil && host != "" && printableASCII(host) {
		return truncate(host)
	}
	if remoteAddr != "" && printableASCII(remoteAddr) {
		return truncate(remoteAddr)
	}
	return anonymousKey
}

// sanitizeHeaderKey vets one header value into a key, reporting ok=false
// for anything empty or containing bytes outside printable ASCII.
func sanitizeHeaderKey(header string) (string, bool) {
	if header == "" {
		return "", false
	}
	if i := strings.IndexByte(header, ','); i >= 0 {
		header = header[:i]
	}
	header = strings.TrimSpace(header)
	if header == "" || !printableASCII(header) {
		return "", false
	}
	return truncate(header), true
}

// printableASCII reports whether every byte is in [0x21, 0x7e] or a
// space — no control bytes, no high bytes (multi-byte sequences could be
// truncated mid-rune by the length cap).
func printableASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < 0x20 || s[i] > 0x7e {
			return false
		}
	}
	return true
}

func truncate(s string) string {
	if len(s) > maxClientKeyLen {
		return s[:maxClientKeyLen]
	}
	return s
}

// clientCtxKey carries the admission client key through a context.
type clientCtxKey struct{}

// WithClient returns a context carrying the admission client key; the
// proxy's HTTP front door sets it from ClientKey, and in-process callers
// (tests, the load harness) set it directly.
func WithClient(ctx context.Context, key string) context.Context {
	return context.WithValue(ctx, clientCtxKey{}, key)
}

// ClientFromContext returns the context's client key, or anonymousKey when
// none was attached.
func ClientFromContext(ctx context.Context) string {
	if k, ok := ctx.Value(clientCtxKey{}).(string); ok && k != "" {
		return k
	}
	return anonymousKey
}
