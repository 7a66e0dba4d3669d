package admission

import (
	"context"
	"strings"
	"testing"
)

func TestClientKey(t *testing.T) {
	long := strings.Repeat("x", 200)
	tests := []struct {
		name, header, remote, want string
	}{
		{"header wins", "app-123", "10.0.0.1:5000", "app-123"},
		{"first comma token", "alice, proxy1, proxy2", "10.0.0.1:5000", "alice"},
		{"header trimmed", "  bob  ", "10.0.0.1:5000", "bob"},
		{"header truncated", long, "10.0.0.1:5000", long[:maxClientKeyLen]},
		{"control bytes rejected", "evil\x00key", "10.0.0.1:5000", "10.0.0.1"},
		{"high bytes rejected", "\xffclient", "10.0.0.1:5000", "10.0.0.1"},
		{"empty header falls to addr", "", "192.168.1.7:33", "192.168.1.7"},
		{"addr without port", "", "192.168.1.7", "192.168.1.7"},
		{"ipv6 host", "", "[::1]:8080", "::1"},
		{"nothing usable", "", "", anonymousKey},
		{"hostile addr", "\n", "\x01\x02", anonymousKey},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ClientKey(tt.header, tt.remote); got != tt.want {
				t.Errorf("ClientKey(%q, %q) = %q, want %q", tt.header, tt.remote, got, tt.want)
			}
		})
	}
}

func TestClientContext(t *testing.T) {
	ctx := WithClient(context.Background(), "carol")
	if got := ClientFromContext(ctx); got != "carol" {
		t.Errorf("ClientFromContext = %q, want carol", got)
	}
	if got := ClientFromContext(context.Background()); got != anonymousKey {
		t.Errorf("ClientFromContext(empty) = %q, want %q", got, anonymousKey)
	}
}

// FuzzAdmissionKey hammers client-key derivation with hostile header and
// address bytes. Whatever goes in, the key out must be non-empty, at most
// maxClientKeyLen bytes, and printable ASCII — anything else would let an
// attacker mint unbounded or unprintable client identities.
func FuzzAdmissionKey(f *testing.F) {
	f.Add("app-123", "10.0.0.1:5000")
	f.Add("a, b, c", "[::1]:8080")
	f.Add("", "")
	f.Add(strings.Repeat("k", 1000), strings.Repeat("a", 1000))
	f.Add("\x00\x01\x02", "\xff\xfe")
	f.Add("héllo", "exämple:80")
	f.Add(",,,,", ":::::")
	f.Fuzz(func(t *testing.T, header, remoteAddr string) {
		key := ClientKey(header, remoteAddr)
		if key == "" {
			t.Fatalf("empty key from (%q, %q)", header, remoteAddr)
		}
		if len(key) > maxClientKeyLen {
			t.Fatalf("key %q is %d bytes, cap is %d", key, len(key), maxClientKeyLen)
		}
		if !printableASCII(key) {
			t.Fatalf("key %q contains non-printable bytes from (%q, %q)", key, header, remoteAddr)
		}
	})
}
