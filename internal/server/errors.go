package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"

	"lockstep/internal/inject"
)

// apiError is the structured error every non-2xx response carries, as
// {"error": {"code": ..., "message": ..., "field": ...}}. Code is a
// stable machine-readable slug; Field names the offending request or
// config field when one is known (e.g. the inject.ConfigError field for
// an invalid campaign config), so clients and the CLI can report the
// same field identically.
type apiError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
	Field   string `json:"field,omitempty"`
}

func (e *apiError) Error() string { return e.Message }

// errf builds an apiError with a formatted message.
func errf(status int, code, format string, args ...any) *apiError {
	return &apiError{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// configError maps a campaign config validation failure onto the API
// error shape, preserving the typed inject.ConfigError's field name. A
// *inject.ConfigMismatchError — a submission or resume conflicting with
// persisted campaign state — is a conflict, not a malformed request, and
// keeps its differing-field name too.
func configError(err error) *apiError {
	var cme *inject.ConfigMismatchError
	if errors.As(err, &cme) {
		return &apiError{Status: http.StatusConflict, Code: "config_mismatch", Message: cme.Error(), Field: cme.Field}
	}
	var ce *inject.ConfigError
	if errors.As(err, &ce) {
		return &apiError{Status: http.StatusBadRequest, Code: "invalid_config", Message: ce.Error(), Field: ce.Field}
	}
	return errf(http.StatusBadRequest, "invalid_config", "%v", err)
}

// injectAPIError maps the typed errors of the distributed-campaign paths
// onto the structured envelope with stable codes, so every rejection a
// worker node can hit — wrong campaign, dead lease, conflicting config,
// malformed message — is machine-distinguishable. Any other error, such
// as a coordinator shutting down, stays a 5xx the worker retries.
func injectAPIError(err error) error {
	var sfe *inject.StaleFingerprintError
	if errors.As(err, &sfe) {
		return &apiError{Status: http.StatusConflict, Code: "fingerprint_mismatch", Message: sfe.Error(), Field: "digest"}
	}
	var lee *inject.LeaseExpiredError
	if errors.As(err, &lee) {
		return &apiError{Status: http.StatusConflict, Code: "lease_expired", Message: lee.Error()}
	}
	var cme *inject.ConfigMismatchError
	if errors.As(err, &cme) {
		return configError(err)
	}
	var me *inject.MessageError
	if errors.As(err, &me) {
		return &apiError{Status: http.StatusBadRequest, Code: "bad_request", Message: me.Error()}
	}
	var ce *inject.ConfigError
	if errors.As(err, &ce) {
		return configError(err)
	}
	return err
}

// readBody reads a request body of at most limit bytes.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		return nil, bodyError(err)
	}
	return body, nil
}

// bodyError answers a failed body read: a read the request deadline cut
// off gets the 504 of every expired request, any other failure a 400.
func bodyError(err error) error {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return errf(http.StatusGatewayTimeout, "deadline_exceeded", "request deadline exceeded reading the body")
	}
	return errf(http.StatusBadRequest, "bad_request", "reading body: %v", err)
}

// decodeJSON decodes one JSON value from data into v the way every
// lockstep-serve request body is decoded: unknown fields and trailing
// data are refused with 400 bad_request. Only io.EOF from the next Token
// proves nothing follows the value; Decoder.More would let a stray '}'
// or ']' through.
func decodeJSON(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return errf(http.StatusBadRequest, "bad_request", "decoding request: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errf(http.StatusBadRequest, "bad_request", "trailing data after request object")
	}
	return nil
}

// readJSON reads a request body of at most limit bytes and decodes it
// into v with decodeJSON.
func readJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	body, err := readBody(w, r, limit)
	if err != nil {
		return err
	}
	return decodeJSON(body, v)
}

// writeJSON renders v with the given status. Encoding errors after the
// header is out are unrecoverable mid-stream and are dropped.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError renders an apiError (any other error becomes a 500).
func writeError(w http.ResponseWriter, err error) {
	var ae *apiError
	if !errors.As(err, &ae) {
		ae = errf(http.StatusInternalServerError, "internal", "%v", err)
	}
	writeJSON(w, ae.Status, struct {
		Error *apiError `json:"error"`
	}{ae})
}
