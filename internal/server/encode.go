package server

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// This file is the reply encoder of /lookup and /bulk: every
// LookupResponse is appended, byte for byte as json.Encoder.Encode would
// write it (FuzzAppendLookupResponse holds it to that), into one pooled
// buffer, and the reply goes out with its Content-Length in one Write.
// A traced reply, and a score encoding/json refuses, take encoding/json
// itself.

// replyPool holds the reply buffers; one grows to the largest reply its
// handler wrote and stays that size.
var replyPool = sync.Pool{New: func() any { return new([]byte) }}

// writeReply sends body with its Content-Length, in one Write.
func writeReply(w http.ResponseWriter, contentType string, body []byte) {
	h := w.Header()
	h.Set("Content-Type", contentType)
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// appendLookupResponse appends resp and a newline to b exactly as
// json.NewEncoder(w).Encode(resp) writes it; a response Encode refuses
// (a NaN or infinite score) appends nothing, as Encode writes nothing.
func appendLookupResponse(b []byte, resp *LookupResponse) []byte {
	if resp.TraceID != "" || len(resp.Trace) > 0 || !finiteScores(resp.Results) {
		if j, err := json.Marshal(*resp); err == nil { // a copy: resp itself stays on the caller's stack
			b = append(append(b, j...), '\n')
		}
		return b
	}
	b = append(b, `{"query":`...)
	b = appendJSONString(b, resp.Query)
	b = append(b, `,"tookUs":`...)
	b = strconv.AppendInt(b, resp.TookUs, 10)
	b = append(b, `,"results":`...)
	if resp.Results == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, h := range resp.Results {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"id":`...)
			b = strconv.AppendInt(b, int64(h.ID), 10)
			b = append(b, `,"label":`...)
			b = appendJSONString(b, h.Label)
			b = append(b, `,"score":`...)
			b = appendJSONFloat(b, h.Score)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if resp.Partial {
		b = append(b, `,"partial":true`...)
	}
	if len(resp.Failed) > 0 {
		b = append(b, `,"failedPartitions":[`...)
		for i, p := range resp.Failed {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(p), 10)
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...)
}

func finiteScores(hits []Hit) bool {
	for _, h := range hits {
		if math.IsNaN(h.Score) || math.IsInf(h.Score, 0) {
			return false
		}
	}
	return true
}

// appendJSONFloat appends a finite f as encoding/json writes a float64:
// the shortest 'f' form, or 'e' form outside [1e-6, 1e21) with a
// two-digit negative exponent cleaned up (e-09 to e-9).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const jsonHex = "0123456789abcdef"

// appendJSONString appends s quoted as encoding/json writes a string with
// HTML escaping on: <, > and & as \u00XX, the short escapes of \b \f \n \r
// \t \\ and \", other control bytes as \u00XX, each invalid UTF-8 byte as
// the escaped replacement character, and U+2028 / U+2029 escaped.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', jsonHex[c>>4], jsonHex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		} else if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', jsonHex[r&0xf])
		} else {
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
