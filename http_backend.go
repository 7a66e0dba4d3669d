package p3

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// DefaultHTTPTimeout bounds every PSP and blob-store request made by the
// bundled HTTP backends unless WithHTTPClient or WithHTTPTimeout overrides
// it. (The legacy proxy shared http.DefaultClient, which has no timeout at
// all — a hung PSP hung the proxy.)
const DefaultHTTPTimeout = 30 * time.Second

// maxResponseBytes caps PSP and blob-store response bodies.
const maxResponseBytes = 64 << 20

// errorBodySnippetLen bounds how much of an error response body gets quoted
// in the returned error: enough for the backend's message, never a page of
// HTML.
const errorBodySnippetLen = 256

// maxDrainBytes bounds how much of an unread body drainBody will consume to
// keep the connection reusable; a longer remainder is cheaper to close.
const maxDrainBytes = 1 << 18

// statusError turns a non-2xx response into an error carrying a bounded
// snippet of the body, then drains the remainder so the keep-alive
// connection returns to the pool instead of being torn down.
func statusError(resp *http.Response, what string) error {
	snippet, _ := io.ReadAll(io.LimitReader(resp.Body, errorBodySnippetLen))
	drainBody(resp.Body)
	if msg := strings.TrimSpace(string(snippet)); msg != "" {
		return fmt.Errorf("p3: %s: %s: %s", what, resp.Status, msg)
	}
	return fmt.Errorf("p3: %s: %s", what, resp.Status)
}

// drainBody consumes (a bounded amount of) the remaining body. The caller
// still closes the body; draining first is what lets net/http reuse the
// connection.
func drainBody(body io.Reader) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, maxDrainBytes))
}

// HTTPOption configures the bundled HTTP backends.
type HTTPOption func(*httpBackend)

// WithHTTPClient supplies the *http.Client the backend uses, replacing the
// built-in client and its DefaultHTTPTimeout.
func WithHTTPClient(c *http.Client) HTTPOption {
	return func(b *httpBackend) { b.client = c }
}

// WithHTTPTimeout sets the per-request timeout of the built-in client. It is
// ignored when WithHTTPClient is also given.
func WithHTTPTimeout(d time.Duration) HTTPOption {
	return func(b *httpBackend) { b.timeout = d }
}

// httpBackend is the shared base of the two HTTP backends.
type httpBackend struct {
	base    string
	client  *http.Client
	timeout time.Duration
}

func newHTTPBackend(baseURL string, opts []HTTPOption) httpBackend {
	b := httpBackend{base: strings.TrimRight(baseURL, "/"), timeout: DefaultHTTPTimeout}
	for _, opt := range opts {
		opt(&b)
	}
	if b.client == nil {
		b.client = &http.Client{Timeout: b.timeout}
	}
	return b
}

// get fetches url. A 404 response is reported as notFound (a typed
// *NotFoundError from the callers) so the proxy can distinguish a missing
// object from a broken backend.
func (b *httpBackend) get(ctx context.Context, url, what string, notFound error) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("p3: fetching %s: %w", what, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound && notFound != nil {
		drainBody(resp.Body)
		return nil, notFound
	}
	if resp.StatusCode != http.StatusOK {
		return nil, statusError(resp, what+" backend returned")
	}
	return io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
}

// del issues a DELETE to url; 404 counts as success (already gone).
func (b *httpBackend) del(ctx context.Context, url, what string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, url, nil)
	if err != nil {
		return err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return fmt.Errorf("p3: deleting %s: %w", what, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 && resp.StatusCode != http.StatusNotFound {
		return statusError(resp, what+" backend returned")
	}
	drainBody(resp.Body)
	return nil
}

// HTTPPhotoService is a PhotoService speaking the PSP wire API:
//
//	POST {base}/upload              body: JPEG → {"id": "..."}
//	GET  {base}/photo/{id}?size=…&w=…&h=…&crop=…
type HTTPPhotoService struct {
	httpBackend
}

// NewHTTPPhotoService builds a PhotoService client for the PSP at baseURL.
func NewHTTPPhotoService(baseURL string, opts ...HTTPOption) *HTTPPhotoService {
	return &HTTPPhotoService{httpBackend: newHTTPBackend(baseURL, opts)}
}

// UploadPhoto implements PhotoService.
func (s *HTTPPhotoService) UploadPhoto(ctx context.Context, jpegBytes []byte) (string, error) {
	id, _, _, err := s.UploadPhotoWithDims(ctx, jpegBytes)
	return id, err
}

// UploadPhotoWithDims implements UploadDimsService: PSPs that include the
// stored dimensions in their upload response ({"id": ..., "w": ..., "h":
// ...}) report them; w/h of 0 mean the PSP did not.
func (s *HTTPPhotoService) UploadPhotoWithDims(ctx context.Context, jpegBytes []byte) (string, int, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/upload", bytes.NewReader(jpegBytes))
	if err != nil {
		return "", 0, 0, err
	}
	req.Header.Set("Content-Type", "image/jpeg")
	resp, err := s.client.Do(req)
	if err != nil {
		return "", 0, 0, fmt.Errorf("p3: uploading to PSP: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", 0, 0, statusError(resp, "PSP rejected upload")
	}
	var out struct {
		ID string `json:"id"`
		W  int    `json:"w"`
		H  int    `json:"h"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxResponseBytes)).Decode(&out); err != nil {
		return "", 0, 0, fmt.Errorf("p3: parsing PSP response: %w", err)
	}
	drainBody(resp.Body) // the decoder stops at the JSON value's end
	if out.ID == "" {
		return "", 0, 0, fmt.Errorf("p3: PSP returned empty photo ID")
	}
	return out.ID, out.W, out.H, nil
}

// FetchPhoto implements PhotoService. The ID is path-escaped: PSP-assigned
// IDs are opaque, and an ID like "a/../b" pasted into the URL raw would
// address an arbitrary path on the backend instead of the photo namespace.
func (s *HTTPPhotoService) FetchPhoto(ctx context.Context, id string, v PhotoVariant) ([]byte, error) {
	u := s.base + "/photo/" + url.PathEscape(id)
	if q := v.AppendQuery(nil); len(q) > 0 {
		u += "?" + string(q)
	}
	return s.get(ctx, u, "public part", &NotFoundError{Kind: "photo", ID: id})
}

// DeletePhoto implements PhotoDeleter (DELETE {base}/photo/{id}).
func (s *HTTPPhotoService) DeletePhoto(ctx context.Context, id string) error {
	return s.del(ctx, s.base+"/photo/"+url.PathEscape(id), "photo")
}

// HTTPSecretStore is a SecretStore speaking the blob-store wire API:
//
//	PUT {base}/blob/{id}   body: sealed blob
//	GET {base}/blob/{id}
//	GET {base}/blob/       → JSON array of every stored id
type HTTPSecretStore struct {
	httpBackend
}

// NewHTTPSecretStore builds a SecretStore client for the store at baseURL.
func NewHTTPSecretStore(baseURL string, opts ...HTTPOption) *HTTPSecretStore {
	return &HTTPSecretStore{httpBackend: newHTTPBackend(baseURL, opts)}
}

// PutSecret implements SecretStore. Like FetchPhoto, the PSP-assigned ID is
// path-escaped so it always lands inside the /blob/ namespace.
func (s *HTTPSecretStore) PutSecret(ctx context.Context, id string, blob []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, s.base+"/blob/"+url.PathEscape(id), bytes.NewReader(blob))
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return fmt.Errorf("p3: storing secret part: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return statusError(resp, "blob store returned")
	}
	drainBody(resp.Body)
	return nil
}

// GetSecret implements SecretStore.
func (s *HTTPSecretStore) GetSecret(ctx context.Context, id string) ([]byte, error) {
	return s.get(ctx, s.base+"/blob/"+url.PathEscape(id), "secret part", &NotFoundError{Kind: "secret", ID: id})
}

// DeleteSecret implements SecretDeleter (DELETE {base}/blob/{id}).
func (s *HTTPSecretStore) DeleteSecret(ctx context.Context, id string) error {
	return s.del(ctx, s.base+"/blob/"+url.PathEscape(id), "secret part")
}

// ListSecrets implements SecretLister (GET {base}/blob/), the inventory an
// ErasureSecretStore's scrubber walks. A store that offers no listing
// answers with an error, and its shard counts as unlistable.
func (s *HTTPSecretStore) ListSecrets(ctx context.Context) ([]string, error) {
	body, err := s.get(ctx, s.base+"/blob/", "secret listing", nil)
	if err != nil {
		return nil, err
	}
	var ids []string
	if err := json.Unmarshal(body, &ids); err != nil {
		return nil, fmt.Errorf("p3: parsing blob store listing: %w", err)
	}
	return ids, nil
}
