package sfa

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"
)

// Credential is an HMAC-signed capability: the federation's trust root
// (a shared secret among the top-level authorities, standing in for SFA's
// certificate chains) signs (subject, authority, expiry).
type Credential struct {
	Subject   string // user or peer authority name
	Authority string // issuing authority
	Expires   int64  // unix seconds
	Signature string // hex HMAC-SHA256
}

func credentialDigest(secret []byte, subject, authority string, expires int64) string {
	mac := hmac.New(sha256.New, secret)
	fmt.Fprintf(mac, "%s\x00%s\x00%d", subject, authority, expires)
	return hex.EncodeToString(mac.Sum(nil))
}

// IssueCredential signs a credential valid for ttl.
func IssueCredential(secret []byte, subject, authority string, ttl time.Duration) Credential {
	exp := time.Now().Add(ttl).Unix()
	return Credential{
		Subject:   subject,
		Authority: authority,
		Expires:   exp,
		Signature: credentialDigest(secret, subject, authority, exp),
	}
}

// Verify checks the signature and expiry against the shared secret.
func (c Credential) Verify(secret []byte, now time.Time) error {
	if now.Unix() > c.Expires {
		return fmt.Errorf("sfa: credential for %s expired", c.Subject)
	}
	want := credentialDigest(secret, c.Subject, c.Authority, c.Expires)
	got, err := hex.DecodeString(c.Signature)
	if err != nil {
		return fmt.Errorf("sfa: malformed credential signature")
	}
	wantRaw, _ := hex.DecodeString(want)
	if !hmac.Equal(got, wantRaw) {
		return fmt.Errorf("sfa: credential signature mismatch for %s", c.Subject)
	}
	return nil
}
