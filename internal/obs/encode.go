package obs

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"strings"
)

// maxInlineAttrs is how many attrs AppendJSON sorts without touching the
// heap; the largest event the program emits (run.end) carries nine.
const maxInlineAttrs = 16

// AppendJSON appends the JSON encoding of e to dst and returns the extended
// buffer. The bytes are exactly those json.Marshal(e) writes: fields in
// struct order, side and attrs omitted when empty, attr keys sorted, and
// numbers and strings formatted as encoding/json formats them. The string,
// int, float64 and bool attrs the program emits take a reflection-free
// path; any other value, and any string that needs escaping, is encoded by
// encoding/json itself. A NaN or infinite float fails as json.Marshal
// fails; on error dst is returned unextended.
func (e Event) AppendJSON(dst []byte) ([]byte, error) {
	b := append(dst, `{"seq":`...)
	b = strconv.AppendUint(b, e.Seq, 10)
	b = append(b, `,"t":`...)
	b, err := appendFloat(b, e.T)
	if err != nil {
		return dst, err
	}
	b = append(b, `,"kind":`...)
	if b, err = appendString(b, string(e.Kind)); err != nil {
		return dst, err
	}
	if e.Side != 0 {
		b = append(b, `,"side":`...)
		b = strconv.AppendInt(b, int64(e.Side), 10)
	}
	if len(e.Attrs) == 0 {
		return append(b, '}'), nil
	}
	type attr struct {
		k string
		v any
	}
	var inline [maxInlineAttrs]attr
	attrs := inline[:0]
	for k, v := range e.Attrs {
		attrs = append(attrs, attr{k, v})
	}
	slices.SortFunc(attrs, func(x, y attr) int { return strings.Compare(x.k, y.k) })
	b = append(b, `,"attrs":{`...)
	for i, a := range attrs {
		if i > 0 {
			b = append(b, ',')
		}
		if b, err = appendString(b, a.k); err != nil {
			return dst, err
		}
		b = append(b, ':')
		if b, err = appendValue(b, a.v); err != nil {
			return dst, err
		}
	}
	return append(b, "}}"...), nil
}

func appendValue(b []byte, v any) ([]byte, error) {
	switch v := v.(type) {
	case string:
		return appendString(b, v)
	case int:
		return strconv.AppendInt(b, int64(v), 10), nil
	case float64:
		return appendFloat(b, v)
	case bool:
		return strconv.AppendBool(b, v), nil
	}
	return appendMarshal(b, v)
}

// appendString writes s quoted as-is when encoding/json would copy it
// verbatim: printable ASCII other than the quote, the backslash and the
// HTML-escaped <, > and &.
func appendString(b []byte, s string) ([]byte, error) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return appendMarshal(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"'), nil
}

// appendFloat formats f as encoding/json does: the shortest representation
// that round-trips, in exponent form below 1e-6 and from 1e21 up.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return appendMarshal(b, f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7, as encoding/json trims it.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

func appendMarshal(b []byte, v any) ([]byte, error) {
	enc, err := json.Marshal(v)
	if err != nil {
		return b, err
	}
	return append(b, enc...), nil
}
