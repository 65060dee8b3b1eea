package serve

import (
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// Response is the wire shape of a served posterior query. AppendJSON
// writes it: the fields below in this order, under their tag names.
type Response struct {
	Graph      string      `json:"graph"`
	Engine     string      `json:"engine"`
	Warm       bool        `json:"warm"`
	Converged  bool        `json:"converged"`
	Iterations int         `json:"iterations"`
	Updates    int64       `json:"updates"`
	Edges      int64       `json:"edges"`
	FinalDelta float64     `json:"final_delta"`
	WallNs     int64       `json:"wall_ns"`
	Beliefs    BeliefTable `json:"beliefs"`
}

// BeliefTable is an answer's posteriors: the answered nodes in ascending
// id order and one row of States floats per node, row-major, copied out
// of the run's state. An export (every node) keeps no node list: row i
// is node i.
type BeliefTable struct {
	nodes  []int32 // ascending; nil for an export
	states int
	values []float32
	names  []string // the resident graph's node names, shared
}

// Len returns the number of answered nodes.
func (t *BeliefTable) Len() int {
	if t.states == 0 {
		return 0
	}
	return len(t.values) / t.states
}

// Node returns the id of the i-th answered node.
func (t *BeliefTable) Node(i int) int32 {
	if t.nodes == nil {
		return int32(i)
	}
	return t.nodes[i]
}

// Row returns the i-th answered node's belief (a view, not a copy).
func (t *BeliefTable) Row(i int) []float32 {
	return t.values[i*t.states : (i+1)*t.states]
}

// Of returns node v's belief, if the answer holds it.
func (t *BeliefTable) Of(v int32) ([]float32, bool) {
	i := int(v)
	if t.nodes != nil {
		var ok bool
		if i, ok = slices.BinarySearch(t.nodes, v); !ok {
			return nil, false
		}
	}
	if i < 0 || i >= t.Len() {
		return nil, false
	}
	return t.Row(i), true
}

// MarshalJSON returns AppendJSON's encoding.
func (resp *Response) MarshalJSON() ([]byte, error) {
	return resp.AppendJSON(nil), nil
}

// AppendJSON appends the answer's JSON encoding to dst and returns the
// extended buffer. Scalars, strings and floats are formatted exactly as
// encoding/json formats them, so the bytes equal the encoding/json
// encoding of the same fields except that "beliefs" keys come in node
// order rather than sorted. A node's key is its name, or its decimal id
// when it has none. Every value is finite: the kernels' normalisation
// falls back to uniform rather than produce NaN or an infinity.
func (resp *Response) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"graph":`...)
	dst = appendString(dst, resp.Graph)
	dst = append(dst, `,"engine":`...)
	dst = appendString(dst, resp.Engine)
	dst = append(dst, `,"warm":`...)
	dst = strconv.AppendBool(dst, resp.Warm)
	dst = append(dst, `,"converged":`...)
	dst = strconv.AppendBool(dst, resp.Converged)
	dst = append(dst, `,"iterations":`...)
	dst = strconv.AppendInt(dst, int64(resp.Iterations), 10)
	dst = append(dst, `,"updates":`...)
	dst = strconv.AppendInt(dst, resp.Updates, 10)
	dst = append(dst, `,"edges":`...)
	dst = strconv.AppendInt(dst, resp.Edges, 10)
	dst = append(dst, `,"final_delta":`...)
	dst = appendFloat(dst, resp.FinalDelta, 64)
	dst = append(dst, `,"wall_ns":`...)
	dst = strconv.AppendInt(dst, resp.WallNs, 10)
	dst = append(dst, `,"beliefs":{`...)
	t := &resp.Beliefs
	for i, n := 0, t.Len(); i < n; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		v := t.Node(i)
		if int(v) < len(t.names) && t.names[v] != "" {
			dst = appendString(dst, t.names[v])
		} else {
			dst = append(dst, '"')
			dst = strconv.AppendInt(dst, int64(v), 10)
			dst = append(dst, '"')
		}
		dst = append(dst, ':', '[')
		for j, x := range t.Row(i) {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = appendFloat(dst, float64(x), 32)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}', '}')
}

// appendFloat formats a float32 (bits 32) or float64 value as
// encoding/json does, by the ES6 number-to-string rule: shortest
// round-trip digits, in exponent form below 1e-6 and from 1e21 up, with
// a one-digit exponent left unpadded.
func appendFloat(dst []byte, f float64, bits int) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (bits == 64 && (abs < 1e-6 || abs >= 1e21) ||
		bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21)) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, bits)
	if format == 'e' {
		// e-09 becomes e-9.
		n := len(dst)
		if dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a quoted JSON string, escaped as
// encoding/json escapes it by default: quotes, backslashes and control
// bytes, the HTML-sensitive <, > and &, U+2028 and U+2029, and each
// byte of invalid UTF-8 as U+FFFD. Runs of plain ASCII are copied
// whole.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
