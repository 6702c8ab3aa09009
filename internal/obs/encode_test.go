package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// checkAppendJSON requires e.AppendJSON to write exactly json.Marshal's
// bytes after a prefix it leaves intact, or to fail where json.Marshal
// fails and then return the prefix unextended.
func checkAppendJSON(t *testing.T, e Event) {
	t.Helper()
	prefix := []byte("prefix\n")
	want, werr := json.Marshal(e)
	got, gerr := e.AppendJSON(bytes.Clone(prefix))
	switch {
	case (werr == nil) != (gerr == nil):
		t.Fatalf("%#v: json.Marshal error %v, AppendJSON error %v", e, werr, gerr)
	case gerr != nil:
		if !bytes.Equal(got, prefix) {
			t.Fatalf("%#v: AppendJSON failed but extended dst to %q", e, got)
		}
	case !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want):
		t.Fatalf("%#v:\n AppendJSON  %q\n json.Marshal %q", e, got, want)
	}
}

// FuzzEventAppendJSON checks the reflection-free encoder against
// encoding/json over arbitrary strings (kinds, attr keys and values), raw
// float bits (timestamps and attrs), ints, bools and a type the encoder
// hands to encoding/json.
func FuzzEventAppendJSON(f *testing.F) {
	bits := math.Float64bits
	f.Add("doc.processed", "doc", "Glimmer Systems", bits(26.471002753586795), bits(6), 7, 1, true)
	f.Add("run.end", "total_time", "", bits(0), bits(math.Copysign(0, -1)), 0, 0, false)
	f.Add("k\xff\xfe", "\xc3\x28", "bad utf-8 \xed\xa0\x80 \xf4\x90\x80\x80", bits(1e-7), bits(1e-6), -1, 2, true)
	f.Add("<>&", "a<b>&c", "x & y <z>", bits(1e21), bits(999999999999999999999.0), math.MaxInt, -3, false)
	f.Add("line\u2028sep", "\u2029", "para\u2029 line\u2028 é ✓", bits(5e-324), bits(math.MaxFloat64), math.MinInt, 1, true)
	f.Add("ctl\t", "\x00\x1f", "\b\f\n\r\t\x01\x7f\"\\/", bits(123456789.125), bits(-9.999999e-7), 42, 0, false)
	f.Add("nan", "f", "s", bits(1), bits(math.NaN()), 1, 1, true)
	f.Add("inf", "f", "s", bits(math.Inf(1)), bits(2), 1, 1, true)
	f.Add("-inf", "f", "s", bits(3), bits(math.Inf(-1)), 1, 1, false)
	f.Fuzz(func(t *testing.T, kind, key, s string, tbits, fbits uint64, n, side int, b bool) {
		e := Event{Seq: uint64(n), T: math.Float64frombits(tbits), Kind: Kind(kind), Side: side}
		checkAppendJSON(t, e)
		e.Attrs = map[string]any{
			key: s,
			"f": math.Float64frombits(fbits),
			"n": n,
			"b": b,
			"x": []string{s, kind},
		}
		checkAppendJSON(t, e)
	})
}

// TestEventAppendJSONRandom draws events with random float bits, strings
// over an alphabet of every byte class encoding/json treats differently,
// and random attr sets, and requires json.Marshal's bytes for each.
func TestEventAppendJSONRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabet := []string{"a", "Z", "0", " ", ".", "<", ">", "&", `"`, `\`, "\n", "\x00", "\x7f", "é", "\u2028", "\xff", "✓"}
	str := func() string {
		var sb bytes.Buffer
		for i := rng.Intn(8); i > 0; i-- {
			sb.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		return sb.String()
	}
	float := func() float64 {
		switch rng.Intn(3) {
		case 0:
			return math.Float64frombits(rng.Uint64())
		case 1:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25))
		}
		return float64(rng.Intn(1000)) / 8
	}
	for i := 0; i < 20000; i++ {
		e := Event{Seq: rng.Uint64(), T: float(), Kind: Kind(str()), Side: rng.Intn(3)}
		if rng.Intn(4) > 0 {
			e.Attrs = map[string]any{}
			for j := rng.Intn(12); j > 0; j-- {
				var v any
				switch rng.Intn(6) {
				case 0:
					v = str()
				case 1:
					v = rng.Int() - rng.Int()
				case 2:
					v = float()
				case 3:
					v = rng.Intn(2) == 0
				case 4:
					v = nil
				default:
					v = uint8(rng.Intn(256))
				}
				e.Attrs[str()] = v
			}
		}
		checkAppendJSON(t, e)
	}
}
