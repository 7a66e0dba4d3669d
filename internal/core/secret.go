package core

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The secret part travels as an encrypt-then-MAC container. The paper
// assumes an AES symmetric key shared out of band between sender and
// recipients (§4.1); the storage provider holding the blob is untrusted, so
// confidentiality comes from AES-256-CTR and integrity from HMAC-SHA256.
// (The paper scopes tamper *recovery* out; we still detect tampering.)

// Key is the symmetric key shared between a sender and recipients.
type Key [32]byte

// NewKey generates a random key.
func NewKey() (Key, error) {
	var k Key
	if _, err := io.ReadFull(rand.Reader, k[:]); err != nil {
		return Key{}, fmt.Errorf("core: generating key: %w", err)
	}
	return k, nil
}

// derive produces independent encryption and MAC keys from the shared key,
// so a single out-of-band secret suffices.
func (k Key) derive(label string) []byte {
	m := hmac.New(sha256.New, k[:])
	m.Write([]byte(label))
	return m.Sum(nil)
}

const (
	secretMagic   = "P3S1"
	secretHdrLen  = 4 + 1 + 2 + aes.BlockSize // magic, version, threshold, IV
	secretMACLen  = sha256.Size
	secretVersion = 1
)

// ErrAuth reports a secret container that failed authentication: wrong key,
// truncation, or tampering by the storage provider or an eavesdropper.
var ErrAuth = errors.New("core: secret part authentication failed")

// SealSecret encrypts the serialized secret-part JPEG together with the
// splitting threshold. The threshold is bound into the MAC but stored in the
// clear-text header: it is not confidential (§3.4 — an attacker can guess it
// from the public part anyway) and the recipient needs it before decrypting.
func SealSecret(key Key, threshold int, secretJPEG []byte) ([]byte, error) {
	if threshold < 1 || threshold > MaxThreshold {
		return nil, fmt.Errorf("core: threshold %d out of range", threshold)
	}
	blob := make([]byte, secretHdrLen+len(secretJPEG)+secretMACLen)
	copy(blob, secretMagic)
	blob[4] = secretVersion
	binary.BigEndian.PutUint16(blob[5:7], uint16(threshold))
	iv := blob[7 : 7+aes.BlockSize]
	if _, err := io.ReadFull(rand.Reader, iv); err != nil {
		return nil, fmt.Errorf("core: generating IV: %w", err)
	}
	block, err := aes.NewCipher(key.derive("p3-enc"))
	if err != nil {
		return nil, err
	}
	cipher.NewCTR(block, iv).XORKeyStream(blob[secretHdrLen:secretHdrLen+len(secretJPEG)], secretJPEG)
	mac := hmac.New(sha256.New, key.derive("p3-mac"))
	mac.Write(blob[:secretHdrLen+len(secretJPEG)])
	copy(blob[secretHdrLen+len(secretJPEG):], mac.Sum(nil))
	return blob, nil
}

// OpenSecret authenticates and decrypts a secret container, returning the
// threshold and the secret-part JPEG bytes.
func OpenSecret(key Key, blob []byte) (threshold int, secretJPEG []byte, err error) {
	return openSecretInto(key, blob, nil)
}

// openSecretInto is OpenSecret decrypting into buf, reallocated only when too
// small; the returned secretJPEG is buf's storage when it fit.
func openSecretInto(key Key, blob, buf []byte) (threshold int, secretJPEG []byte, err error) {
	if len(blob) < secretHdrLen+secretMACLen {
		return 0, nil, ErrAuth
	}
	if !bytes.Equal(blob[:4], []byte(secretMagic)) {
		return 0, nil, fmt.Errorf("core: not a P3 secret container")
	}
	if blob[4] != secretVersion {
		return 0, nil, fmt.Errorf("core: unsupported secret container version %d", blob[4])
	}
	body := blob[:len(blob)-secretMACLen]
	mac := hmac.New(sha256.New, key.derive("p3-mac"))
	mac.Write(body)
	if !hmac.Equal(mac.Sum(nil), blob[len(blob)-secretMACLen:]) {
		return 0, nil, ErrAuth
	}
	threshold = int(binary.BigEndian.Uint16(blob[5:7]))
	iv := blob[7 : 7+aes.BlockSize]
	ct := body[secretHdrLen:]
	if cap(buf) < len(ct) {
		buf = make([]byte, len(ct))
	}
	secretJPEG = buf[:len(ct)]
	block, err := aes.NewCipher(key.derive("p3-enc"))
	if err != nil {
		return 0, nil, err
	}
	cipher.NewCTR(block, iv).XORKeyStream(secretJPEG, ct)
	return threshold, secretJPEG, nil
}
