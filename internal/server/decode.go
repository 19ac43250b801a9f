package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
)

// This file is the zero-allocation request side of the predict hot path:
// a hand-rolled scanner for the tiny /v1/predict grammar
//
//	{ "dsr": <hex-string | uint> }  |  { "dsrs": [ <hex-string | uint>, ... ] }
//
// replacing the PR-5 json.Decoder (which built a map-backed token stream
// and reflected into the request struct, several allocations per
// request). The scanner writes into caller-owned scratch and allocates
// only on error paths and on strings that actually contain escape
// sequences. decode_test.go locks its accept/reject behaviour, parsed
// values, and error status/code/field against the retained reflection
// decoder over the fuzz corpus and a randomized body mix.

// predictScratch is the pooled per-request working set: the body bytes,
// the decoded DSR batch, and the rendered response. Buffers keep their
// capacity across requests; putPredictScratch drops outliers so one huge
// batch cannot pin memory in the pool forever.
type predictScratch struct {
	body []byte
	dsrs []uint64
	out  []byte
}

var predictPool = sync.Pool{New: func() any { return new(predictScratch) }}

// Pool retention caps. A steady stream of ordinary requests (single DSRs
// up to full 1024-DSR batches) stays comfortably below these and reuses
// its buffers forever; a pathological request re-allocates once and is
// then forgotten.
const (
	maxPooledBody = 64 << 10
	maxPooledDSRs = 4096
	maxPooledOut  = 1 << 20
)

func getPredictScratch() *predictScratch { return predictPool.Get().(*predictScratch) }

func putPredictScratch(sc *predictScratch) {
	if cap(sc.body) > maxPooledBody || cap(sc.dsrs) > maxPooledDSRs || cap(sc.out) > maxPooledOut {
		return
	}
	predictPool.Put(sc)
}

// errBodyTooLarge distinguishes the 413 path of readBodyInto.
var errBodyTooLarge = fmt.Errorf("body too large")

// readBodyInto reads r to EOF into buf (reusing its capacity), failing
// with errBodyTooLarge once more than limit bytes have arrived. It is
// the pooled replacement for io.ReadAll + http.MaxBytesReader.
func readBodyInto(r io.Reader, buf []byte, limit int) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			n := 2 * cap(buf)
			if n < 512 {
				n = 512
			}
			if n > limit+1 {
				n = limit + 1
			}
			grown := make([]byte, len(buf), n)
			copy(grown, buf)
			buf = grown
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if len(buf) > limit {
			return buf, errBodyTooLarge
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// parsePredictInto decodes a /v1/predict body into dst (reusing its
// capacity) and returns the DSR batch to look up. Errors carry the same
// status, code and field the reflection decoder produced, in the same
// precedence order: decode errors first, then mutual exclusion, missing
// field, and batch size.
func parsePredictInto(data []byte, dst []uint64, maxBatch int) ([]uint64, error) {
	p := predictParser{b: data}
	p.ws()

	// encoding/json decodes a top-level null into the request struct as a
	// no-op, which then fails the required-field check.
	if p.lit("null") {
		p.ws()
		if p.i < len(p.b) {
			return nil, errTrailing()
		}
		return nil, errMissingDSR()
	}
	if !p.eat('{') {
		return nil, p.syntaxErr("request is not a JSON object")
	}

	var (
		hasDSR, hasDSRs bool
		single          uint64
		count           int
	)
	dst = dst[:0]
	p.ws()
	if !p.eat('}') {
		for {
			key, err := p.key()
			if err != nil {
				return nil, err
			}
			switch key {
			case keyDSR:
				v, null, err := p.value()
				if err != nil {
					return nil, err
				}
				// null leaves the field unset, as with a *dsrValue.
				if !null {
					hasDSR = true
					single = v
				}
			case keyDSRs:
				if p.lit("null") {
					break // null leaves the field unset
				}
				// A repeated key replaces the earlier array, as
				// encoding/json's last-wins semantics do.
				hasDSRs = true
				dst = dst[:0]
				count = 0
				if !p.eat('[') {
					return nil, p.syntaxErr("dsrs is not an array")
				}
				p.ws()
				if !p.eat(']') {
					for {
						v, null, err := p.value()
						if err != nil {
							return nil, err
						}
						if null {
							return nil, p.syntaxErr("null is not a DSR")
						}
						dst = append(dst, v)
						count++
						p.ws()
						if p.eat(',') {
							p.ws()
							continue
						}
						if p.eat(']') {
							break
						}
						return nil, p.syntaxErr("malformed dsrs array")
					}
				}
			}
			p.ws()
			if p.eat(',') {
				p.ws()
				continue
			}
			if p.eat('}') {
				break
			}
			return nil, p.syntaxErr("malformed request object")
		}
	}
	p.ws()
	if p.i < len(p.b) {
		return nil, errTrailing()
	}

	switch {
	case hasDSR && hasDSRs:
		return nil, &apiError{Status: http.StatusBadRequest, Code: "bad_request",
			Message: "dsr and dsrs are mutually exclusive", Field: "dsr"}
	case hasDSR:
		return append(dst[:0], single), nil
	case !hasDSRs || count == 0:
		return nil, errMissingDSR()
	case count > maxBatch:
		return nil, &apiError{Status: http.StatusRequestEntityTooLarge, Code: "batch_too_large",
			Message: fmt.Sprintf("batch of %d DSRs exceeds the %d limit", count, maxBatch), Field: "dsrs"}
	}
	return dst, nil
}

func errMissingDSR() *apiError {
	return &apiError{Status: http.StatusBadRequest, Code: "bad_request",
		Message: "one of dsr or dsrs is required", Field: "dsr"}
}

func errTrailing() *apiError {
	return errf(http.StatusBadRequest, "bad_request", "trailing data after request object")
}

// predictParser is a cursor over the request bytes.
type predictParser struct {
	b []byte
	i int
}

// Request keys. Field matching is case-insensitive without an exact-case
// competitor, as encoding/json's is.
type predictKey int

const (
	keyDSR predictKey = iota
	keyDSRs
)

func (p *predictParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// eat consumes c if it is next.
func (p *predictParser) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// lit consumes the literal s if it is next.
func (p *predictParser) lit(s string) bool {
	if len(p.b)-p.i >= len(s) && string(p.b[p.i:p.i+len(s)]) == s {
		p.i += len(s)
		return true
	}
	return false
}

func (p *predictParser) syntaxErr(why string) *apiError {
	return errf(http.StatusBadRequest, "bad_request", "decoding request: %s (at byte %d)", why, p.i)
}

// key parses `"name" ws ':' ws` and resolves it to a known field.
// Unknown fields are errors, as DisallowUnknownFields made them.
func (p *predictParser) key() (predictKey, error) {
	if !p.eat('"') {
		return 0, p.syntaxErr("expected object key")
	}
	start := p.i
	for p.i < len(p.b) {
		c := p.b[p.i]
		if c == '"' {
			break
		}
		// A key containing escapes or control bytes cannot spell a known
		// field the way clients write them; reject without unescaping.
		if c == '\\' || c < 0x20 {
			return 0, p.syntaxErr("unsupported object key")
		}
		p.i++
	}
	if !p.eat('"') {
		return 0, p.syntaxErr("unterminated object key")
	}
	name := p.b[start : p.i-1]
	p.ws()
	if !p.eat(':') {
		return 0, p.syntaxErr("expected ':' after object key")
	}
	p.ws()
	switch {
	case foldEq(name, "dsr"):
		return keyDSR, nil
	case foldEq(name, "dsrs"):
		return keyDSRs, nil
	}
	return 0, errf(http.StatusBadRequest, "bad_request",
		"decoding request: json: unknown field %q", name)
}

// foldEq is an ASCII case-insensitive comparison (the only fold that can
// matter for these field names).
func foldEq(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != s[i] {
			return false
		}
	}
	return true
}

// value parses one DSR value: a hex string ("1a2b" or "0x1a2b", the
// dataset CSV convention), a non-negative JSON integer, or null
// (reported via the second return).
func (p *predictParser) value() (uint64, bool, error) {
	if p.i >= len(p.b) {
		return 0, false, p.syntaxErr("unexpected end of request")
	}
	switch c := p.b[p.i]; {
	case c == '"':
		v, err := p.hexString()
		return v, false, err
	case c >= '0' && c <= '9':
		v, err := p.number()
		return v, false, err
	case p.lit("null"):
		return 0, true, nil
	}
	return 0, false, p.badValue()
}

// badValue reports a value that is neither hex string nor non-negative
// integer, echoing the offending token like the reflection decoder did.
func (p *predictParser) badValue() *apiError {
	end := p.i
	for end < len(p.b) {
		switch p.b[end] {
		case ',', ']', '}', ' ', '\t', '\n', '\r':
			return errf(http.StatusBadRequest, "bad_request",
				"DSR %s is not a hex string or non-negative integer", p.b[p.i:end])
		}
		end++
	}
	return errf(http.StatusBadRequest, "bad_request",
		"DSR %s is not a hex string or non-negative integer", p.b[p.i:end])
}

// hexString parses a quoted hex DSR. Strings without escape sequences —
// every real client's — are sliced straight from the body; a string with
// escapes takes a one-off allocating fallback through encoding/json so
// exotic spellings keep decoding exactly as before.
func (p *predictParser) hexString() (uint64, error) {
	start := p.i // at the opening quote
	p.i++
	for p.i < len(p.b) {
		c := p.b[p.i]
		if c == '"' {
			s := p.b[start+1 : p.i]
			p.i++
			v, ok := parseHexDSR(s)
			if !ok {
				return 0, errf(http.StatusBadRequest, "bad_request",
					"DSR %q is not a hex diverged-SC map", s)
			}
			return v, nil
		}
		if c == '\\' {
			return p.hexStringSlow(start)
		}
		if c < 0x20 {
			return 0, p.syntaxErr("control character in string")
		}
		p.i++
	}
	return 0, p.syntaxErr("unterminated string")
}

// hexStringSlow re-parses an escaped string from its opening quote with
// encoding/json, then hex-decodes the unescaped value.
func (p *predictParser) hexStringSlow(start int) (uint64, error) {
	i := start + 1
	for i < len(p.b) {
		switch p.b[i] {
		case '\\':
			i += 2
			continue
		case '"':
			raw := p.b[start : i+1]
			var s string
			if err := json.Unmarshal(raw, &s); err != nil {
				return 0, errf(http.StatusBadRequest, "bad_request", "decoding request: %v", err)
			}
			p.i = i + 1
			v, ok := parseHexDSR([]byte(s))
			if !ok {
				return 0, errf(http.StatusBadRequest, "bad_request",
					"DSR %q is not a hex diverged-SC map", s)
			}
			return v, nil
		}
		i++
	}
	return 0, p.syntaxErr("unterminated string")
}

// parseHexDSR mirrors strconv.ParseUint(s, 16, 64) after the "0x"/"0X"
// prefix trim the dsrValue decoder applied, without converting s to a
// string.
func parseHexDSR(s []byte) (uint64, bool) {
	if len(s) >= 2 && s[0] == '0' && s[1] == 'x' {
		s = s[2:]
	}
	if len(s) >= 2 && s[0] == '0' && s[1] == 'X' {
		s = s[2:]
	}
	if len(s) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range s {
		var d uint64
		switch {
		case '0' <= c && c <= '9':
			d = uint64(c - '0')
		case 'a' <= c && c <= 'f':
			d = uint64(c-'a') + 10
		case 'A' <= c && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, false
		}
		if v > math.MaxUint64>>4 {
			return 0, false // overflow
		}
		v = v<<4 | d
	}
	return v, true
}

// number parses a non-negative JSON integer. Fractions, exponents and
// leading zeros are rejected, as the json grammar or ParseUint rejected
// them before.
func (p *predictParser) number() (uint64, error) {
	start := p.i
	var v uint64
	for p.i < len(p.b) {
		c := p.b[p.i]
		if c < '0' || c > '9' {
			break
		}
		d := uint64(c - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, errf(http.StatusBadRequest, "bad_request",
				"DSR %s is not a hex string or non-negative integer", p.b[start:p.i+1])
		}
		v = v*10 + d
		p.i++
	}
	digits := p.i - start
	if digits > 1 && p.b[start] == '0' {
		return 0, p.syntaxErr("number has a leading zero")
	}
	if p.i < len(p.b) {
		switch p.b[p.i] {
		case ',', ']', '}', ' ', '\t', '\n', '\r':
		default:
			return 0, p.syntaxErr("malformed number")
		}
	}
	return v, nil
}
