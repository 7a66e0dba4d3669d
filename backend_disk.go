package p3

import (
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// DiskSecretStore is a SecretStore backed by a local directory — the
// paper's "any storage the user already has" deployment (a Dropbox-synced
// folder, a NAS mount, a node-local shard of a larger store).
//
// Durability discipline: every blob is written to a temporary file in the
// same directory, fsynced, renamed over the final name, and the directory
// fsynced, so a crash at any point leaves either the old blob or the new
// one — never a torn mix, and never a partially written blob visible to
// GetSecret. Photo IDs are assigned by an untrusted PSP, so they are never
// used as filenames directly: each ID is base64url-encoded (hashed when too
// long for a filename), which confines every possible ID (including ones
// like "a/../b") to a single flat filename inside the store directory.
type DiskSecretStore struct {
	dir string

	// testCrashAfterWrite, when non-nil, is called after the temp file is
	// written but before the rename, simulating a crash mid-write: if it
	// returns an error, PutSecret aborts leaving the temp file behind.
	testCrashAfterWrite func() error
}

// blobSuffix distinguishes committed blobs from in-flight temp files.
const blobSuffix = ".secret"

// idSuffix names the sidecar holding the ID of a hash-named blob, the one
// name ListSecrets cannot decode.
const idSuffix = ".id"

// staleTempAge is how old a stranded temp file must be before the opening
// sweep discards it. The age gate keeps the sweep from racing another live
// store instance on a shared directory (NAS mount, synced folder) whose
// in-flight write is legitimately sitting between CreateTemp and Rename.
const staleTempAge = time.Hour

// NewDiskSecretStore opens (creating if needed) a store rooted at dir.
// Temp files stranded by an old crash are swept away; committed blobs and
// fresh temp files (possibly another live instance's in-flight writes) are
// untouched.
func NewDiskSecretStore(dir string) (*DiskSecretStore, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("p3: opening disk secret store: %w", err)
	}
	// A crash between write and rename strands a temp file; it was never
	// visible, so it is safe to discard once clearly abandoned.
	stale, err := filepath.Glob(filepath.Join(dir, "put-*.tmp"))
	if err == nil {
		for _, f := range stale {
			if info, err := os.Stat(f); err == nil && time.Since(info.ModTime()) > staleTempAge {
				os.Remove(f)
			}
		}
	}
	return &DiskSecretStore{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *DiskSecretStore) Dir() string { return s.dir }

// maxEncodedIDLen bounds the base64 form of an ID in a filename; longer
// IDs fall back to a hash name so the path never exceeds the filesystem's
// NAME_MAX (255 on Linux).
const maxEncodedIDLen = 180

// blobPath maps an arbitrary ID to a flat, path-safe filename: "id-" plus
// the base64url ID for normal IDs (reversible, debuggable with base64 -d),
// or "sha256-" plus the ID's hash for IDs too long to fit in a filename.
// The distinct prefixes keep the two namespaces disjoint, so no two IDs
// can collide on one file. hashed reports the fallback: such a blob has an
// idSuffix sidecar naming its ID beside it.
func (s *DiskSecretStore) blobPath(id string) (path string, hashed bool) {
	enc := base64.RawURLEncoding.EncodeToString([]byte(id))
	if len(enc) > maxEncodedIDLen {
		sum := sha256.Sum256([]byte(id))
		enc, hashed = "sha256-"+hex.EncodeToString(sum[:]), true
	} else {
		enc = "id-" + enc
	}
	return filepath.Join(s.dir, enc+blobSuffix), hashed
}

// sidecarPath is the ID sidecar of the hash-named blob at path.
func sidecarPath(path string) string {
	return strings.TrimSuffix(path, blobSuffix) + idSuffix
}

// PutSecret implements SecretStore with atomic, crash-safe writes. A
// hash-named blob's ID sidecar is committed first, so every committed blob
// can be listed; a crash between the two leaves only a sidecar, which
// lists nothing.
func (s *DiskSecretStore) PutSecret(ctx context.Context, id string, blob []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	path, hashed := s.blobPath(id)
	if hashed {
		if err := s.commit(id, sidecarPath(path), []byte(id), nil); err != nil {
			return err
		}
		if err := s.syncDir(); err != nil {
			return err
		}
	}
	if err := s.commit(id, path, blob, s.testCrashAfterWrite); err != nil {
		return err
	}
	return s.syncDir()
}

// commit writes data to a temp file, fsyncs it and renames it to path.
// crash, when non-nil, runs before the rename (see testCrashAfterWrite).
func (s *DiskSecretStore) commit(id, path string, data []byte, crash func() error) error {
	f, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("p3: disk store: %w", err)
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("p3: disk store writing %q: %w", id, err)
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if crash != nil {
		if err := crash(); err != nil {
			// Simulated crash: the temp file stays behind, exactly as a real
			// crash would leave it. It must never become visible.
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return cleanup(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("p3: disk store committing %q: %w", id, err)
	}
	return nil
}

// syncDir fsyncs the store directory so the rename itself is durable.
func (s *DiskSecretStore) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return fmt.Errorf("p3: disk store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("p3: disk store syncing directory: %w", err)
	}
	return nil
}

// GetSecret implements SecretStore.
func (s *DiskSecretStore) GetSecret(ctx context.Context, id string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	path, _ := s.blobPath(id)
	blob, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, &NotFoundError{Kind: "secret", ID: id}
	}
	if err != nil {
		return nil, fmt.Errorf("p3: disk store reading %q: %w", id, err)
	}
	return blob, nil
}

// DeleteSecret implements SecretDeleter. Deleting an absent blob is not an
// error.
func (s *DiskSecretStore) DeleteSecret(ctx context.Context, id string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	path, hashed := s.blobPath(id)
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("p3: disk store deleting %q: %w", id, err)
	}
	if hashed {
		if err := os.Remove(sidecarPath(path)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("p3: disk store deleting %q: %w", id, err)
		}
	}
	return nil
}

// ListSecrets implements SecretLister by decoding committed blob filenames
// back to their IDs; a hash-named blob's ID comes from its sidecar, and
// is listed only when it hashes to the blob's name.
func (s *DiskSecretStore) ListSecrets(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("p3: disk store listing: %w", err)
	}
	ids := make([]string, 0, len(entries))
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), blobSuffix)
		if !ok || e.IsDir() {
			continue
		}
		if enc, ok := strings.CutPrefix(name, "id-"); ok {
			id, err := base64.RawURLEncoding.DecodeString(enc)
			if err != nil {
				continue // foreign file in the store directory
			}
			ids = append(ids, string(id))
			continue
		}
		if !strings.HasPrefix(name, "sha256-") {
			continue
		}
		id, err := os.ReadFile(filepath.Join(s.dir, name+idSuffix))
		if os.IsNotExist(err) {
			continue // a blob the store wrote before it kept sidecars
		}
		if err != nil {
			return nil, fmt.Errorf("p3: disk store listing: %w", err)
		}
		if path, _ := s.blobPath(string(id)); filepath.Base(path) == e.Name() {
			ids = append(ids, string(id))
		}
	}
	return ids, nil
}

// Len reports how many committed blobs the store holds (for tests, stats,
// and rebalancing tooling).
func (s *DiskSecretStore) Len() (int, error) {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range names {
		if !e.IsDir() && strings.HasSuffix(e.Name(), blobSuffix) {
			n++
		}
	}
	return n, nil
}
