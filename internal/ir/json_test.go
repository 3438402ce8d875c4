package ir

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

// jsonTestLoop builds a loop exercising every node type the codec handles:
// both array kinds, both scalar kinds, temp and element destinations,
// conditionals with and without else, every expression form, and live-outs.
func jsonTestLoop() *Loop {
	b := NewBuilder("codec", "i", 0, 16, 2)
	b.ArrayF("a", []float64{1, 2.5, -3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	b.ArrayI("idx", []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	b.ArrayF("o", make([]float64, 16))
	s := b.ScalarF("scale", 1.5)
	n := b.ScalarI("n", 16)
	i := b.Idx()
	x := b.Def("x", MulE(LDF("a", LDI("idx", i)), s))
	c := b.Def("c", AndE(LtE(i, n), GtE(x, F(0))))
	b.If(c, func() {
		b.Def("y", SqrtE(AbsE(ExpE(NegE(b.T("x"))))))
	}, func() {
		b.Def("y", IToF(FToI(FloorE(LogE(AddE(AbsE(b.T("x")), F(1)))))))
	})
	b.If(NotE(b.T("c")), func() {
		b.StoreI("idx", i, RemE(ShlE(i, I(1)), MaxE(n, I(1))))
	}, nil)
	b.Def("acc", MinE(b.T("y"), MaxE(b.T("y"), SubE(b.T("x"), DivE(b.T("y"), F(2))))))
	b.Def("sel", EqE(NeE(i, I(3)), LeE(ShrE(i, I(1)), XorE(OrE(i, I(1)), I(2)))))
	b.If(b.T("sel"), func() {
		b.StoreF("o", i, b.T("acc"))
	}, nil)
	b.LiveOut("acc")
	return b.MustBuild()
}

func TestLoopJSONRoundTrip(t *testing.T) {
	l := jsonTestLoop()
	data, err := MarshalLoop(l)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalLoop(data)
	if err != nil {
		t.Fatalf("decode: %v\n%s", err, data)
	}
	if got, want := Print(back), Print(l); got != want {
		t.Errorf("round-trip changed the loop:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// The decoded loop must re-encode to the identical bytes: the encoding
	// is the content-address of the service's compile cache.
	data2, err := MarshalLoop(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("re-encoding a decoded loop changed the bytes; the encoding is not canonical")
	}
	// Array and scalar data must survive exactly.
	if back.Arrays[0].InitF[1] != 2.5 || back.Arrays[1].InitI[3] != 3 {
		t.Error("array init data corrupted")
	}
	sc, ok := back.Scalar("scale")
	if !ok || sc.F != 1.5 {
		t.Errorf("scalar scale = %+v, want 1.5", sc)
	}
}

func TestLoopJSONDeterministic(t *testing.T) {
	a, err := MarshalLoop(jsonTestLoop())
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalLoop(jsonTestLoop())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two marshals of the same loop differ")
	}
}

func TestLoopJSONRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		body string
		want string
	}{
		{"not json", `{`, "decoding"},
		{"no name", `{"index":"i","start":0,"end":4,"step":1,"body":[]}`, "no name"},
		{"no index", `{"name":"x","start":0,"end":4,"step":1,"body":[]}`, "no index"},
		{"bad step", `{"name":"x","index":"i","start":0,"end":4,"step":0,"body":[]}`, "step"},
		{"bad kind", `{"name":"x","index":"i","start":0,"end":4,"step":1,
			"arrays":[{"name":"a","kind":"f32","f64":[1]}],"body":[]}`, "unknown kind"},
		{"kind/data mismatch", `{"name":"x","index":"i","start":0,"end":4,"step":1,
			"arrays":[{"name":"a","kind":"i64","f64":[1]}],"body":[]}`, "no i64 data"},
		{"empty expr", `{"name":"x","index":"i","start":0,"end":4,"step":1,
			"body":[{"line":1,"assign":{"temp":"t","kind":"f64","expr":{}}}]}`, "exactly one"},
		{"double-tag expr", `{"name":"x","index":"i","start":0,"end":4,"step":1,
			"body":[{"line":1,"assign":{"temp":"t","kind":"f64","expr":{"f64":1,"i64":2}}}]}`, "exactly one"},
		{"bad binop", `{"name":"x","index":"i","start":0,"end":4,"step":1,
			"body":[{"line":1,"assign":{"temp":"t","kind":"i64","expr":{"bin":{"op":"pow","l":{"i64":1},"r":{"i64":2}}}}}]}`, "unknown binary"},
		{"bin kind mismatch", `{"name":"x","index":"i","start":0,"end":4,"step":1,
			"body":[{"line":1,"assign":{"temp":"t","kind":"f64","expr":{"bin":{"op":"add","l":{"f64":1},"r":{"i64":2}}}}}]}`, "kinds differ"},
		{"int-only op on floats", `{"name":"x","index":"i","start":0,"end":4,"step":1,
			"body":[{"line":1,"assign":{"temp":"t","kind":"f64","expr":{"bin":{"op":"xor","l":{"f64":1},"r":{"f64":2}}}}}]}`, "requires i64"},
		{"sqrt of int", `{"name":"x","index":"i","start":0,"end":4,"step":1,
			"body":[{"line":1,"assign":{"temp":"t","kind":"f64","expr":{"un":{"op":"sqrt","x":{"i64":2}}}}}]}`, "requires an f64"},
		{"assign kind mismatch", `{"name":"x","index":"i","start":0,"end":4,"step":1,
			"body":[{"line":1,"assign":{"temp":"t","kind":"i64","expr":{"f64":1}}}]}`, "kind"},
		{"float load index", `{"name":"x","index":"i","start":0,"end":4,"step":1,
			"arrays":[{"name":"a","kind":"f64","f64":[1,2,3,4]}],
			"body":[{"line":1,"assign":{"temp":"t","kind":"f64","expr":{"load":{"array":"a","kind":"f64","index":{"f64":0}}}}}]}`, "want i64"},
		{"stmt with both forms", `{"name":"x","index":"i","start":0,"end":4,"step":1,
			"body":[{"line":1,"assign":{"temp":"t","kind":"i64","expr":{"i64":1}},"if":{"cond":{"i64":1}}}]}`, "exactly one"},
		{"use before def", `{"name":"x","index":"i","start":0,"end":4,"step":1,
			"body":[{"line":1,"assign":{"temp":"t","kind":"f64","expr":{"temp":"u","kind":"f64"}}}]}`, "before definition"},
		{"undeclared array", `{"name":"x","index":"i","start":0,"end":4,"step":1,
			"body":[{"line":1,"assign":{"array":"o","kind":"f64","index":{"temp":"i","kind":"i64"},"expr":{"f64":1}}}]}`, "undeclared array"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := UnmarshalLoop([]byte(c.body))
			if err == nil {
				t.Fatalf("decode accepted bad input %q", c.name)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// The reference codec: the struct-based encoding/json path MarshalLoop
// used before it appended array payloads itself, and the per-element float
// decoder. MarshalLoop's bytes are content addresses, so its output is
// pinned byte-for-byte to this reference (here and in codec_test.go).

// refF64 is the reference float codec: each value goes through its own
// encoding/json call.
type refF64 float64

func (v refF64) MarshalJSON() ([]byte, error) {
	f := float64(v)
	switch {
	case math.IsNaN(f):
		return []byte(`"nan"`), nil
	case math.IsInf(f, 1):
		return []byte(`"inf"`), nil
	case math.IsInf(f, -1):
		return []byte(`"-inf"`), nil
	}
	return json.Marshal(f)
}

func (v *refF64) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		switch s {
		case "nan":
			*v = refF64(math.NaN())
		case "inf":
			*v = refF64(math.Inf(1))
		case "-inf":
			*v = refF64(math.Inf(-1))
		default:
			return fmt.Errorf("invalid f64 value %q (want a number, \"nan\", \"inf\" or \"-inf\")", s)
		}
		return nil
	}
	var f float64
	if err := json.Unmarshal(data, &f); err != nil {
		return err
	}
	*v = refF64(f)
	return nil
}

type refLoop struct {
	Name    string      `json:"name"`
	Index   string      `json:"index"`
	Start   int64       `json:"start"`
	End     int64       `json:"end"`
	Step    int64       `json:"step"`
	Arrays  []refArray  `json:"arrays,omitempty"`
	Scalars []refScalar `json:"scalars,omitempty"`
	Body    []jsonStmt  `json:"body"`
	LiveOut []string    `json:"liveout,omitempty"`
}

type refArray struct {
	Name string   `json:"name"`
	Kind string   `json:"kind"`
	F64  []refF64 `json:"f64,omitempty"`
	I64  []int64  `json:"i64,omitempty"`
}

type refScalar struct {
	Name string  `json:"name"`
	Kind string  `json:"kind"`
	F64  *refF64 `json:"f64,omitempty"`
	I64  *int64  `json:"i64,omitempty"`
}

// refMarshalLoop is the reference encoder. The body shares encodeStmts
// with MarshalLoop; its float constants go through jsonF64.MarshalJSON,
// which TestAppendF64MatchesEncodingJSON pins to refF64.
func refMarshalLoop(l *Loop) ([]byte, error) {
	jl := refLoop{
		Name: l.Name, Index: l.Index,
		Start: l.Start, End: l.End, Step: l.Step,
		LiveOut: l.LiveOut,
	}
	for _, a := range l.Arrays {
		ja := refArray{Name: a.Name, Kind: a.K.String()}
		if a.K == F64 {
			if a.InitF != nil {
				ja.F64 = make([]refF64, len(a.InitF))
				for i, f := range a.InitF {
					ja.F64[i] = refF64(f)
				}
			}
		} else {
			ja.I64 = a.InitI
		}
		jl.Arrays = append(jl.Arrays, ja)
	}
	for _, s := range l.Scalars {
		js := refScalar{Name: s.Name, Kind: s.K.String()}
		if s.K == F64 {
			f := refF64(s.F)
			js.F64 = &f
		} else {
			i := s.I
			js.I64 = &i
		}
		jl.Scalars = append(jl.Scalars, js)
	}
	body, err := encodeStmts(l.Body)
	if err != nil {
		return nil, err
	}
	jl.Body = body
	return json.Marshal(jl)
}

// specialFloats are the values where encoding/json's float formatting
// changes notation, rounds, or cannot represent the value at all.
var specialFloats = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	1e-6, 9.999999e-7, -1e-6, 1e21, 9.99999e20, -1e21, 1e20,
	5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	0.1, 1.0 / 3, -2.5, 1e-7, 1.5e-10, 1e100, 123456789012345678, -1.2345678901234567e-6,
}

// specialFloatLoop carries every special float in an array, a scalar and
// a body constant.
func specialFloatLoop() *Loop {
	b := NewBuilder("specials", "i", 0, int64(len(specialFloats)), 1)
	b.ArrayF("a", specialFloats)
	b.ArrayI("n", []int64{0, -1, math.MaxInt64, math.MinInt64})
	s := b.ScalarF("s", math.Copysign(0, -1))
	b.ScalarF("t", math.Inf(-1))
	b.ScalarI("k", math.MinInt64)
	x := b.Def("x", AddE(LDF("a", b.Idx()), s))
	for _, f := range specialFloats {
		x = b.Def("x", AddE(x, F(f)))
	}
	b.LiveOut("x")
	return b.MustBuild()
}

func TestAppendF64MatchesEncodingJSON(t *testing.T) {
	for _, f := range specialFloats {
		want, err := refF64(f).MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if got := appendF64(nil, f); !bytes.Equal(got, want) {
			t.Errorf("appendF64(%g) = %s, want %s", f, got, want)
		}
		if got, _ := jsonF64(f).MarshalJSON(); !bytes.Equal(got, want) {
			t.Errorf("jsonF64(%g).MarshalJSON() = %s, want %s", f, got, want)
		}
	}
	// A sweep across every binary exponent and the decimal powers around the
	// notation switches.
	for e := -1074; e <= 1023; e++ {
		for _, m := range []float64{1, 1.1, 1.9999999999999998} {
			f := math.Ldexp(m, e)
			want, _ := refF64(f).MarshalJSON()
			if got := appendF64(nil, f); !bytes.Equal(got, want) {
				t.Fatalf("appendF64(%g) = %s, want %s", f, got, want)
			}
		}
	}
}

func TestMarshalLoopMatchesReferenceSpecials(t *testing.T) {
	for _, l := range []*Loop{specialFloatLoop(), jsonTestLoop()} {
		got, err := MarshalLoop(l)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refMarshalLoop(l)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: MarshalLoop differs from the reference encoder:\ngot  %s\nwant %s", l.Name, got, want)
		}
		back, err := UnmarshalLoop(got)
		if err != nil {
			t.Fatalf("%s: decode: %v", l.Name, err)
		}
		again, err := MarshalLoop(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, got) {
			t.Errorf("%s: decode and re-encode changed the bytes", l.Name)
		}
	}
	// Decoding keeps -0 and the extremes bit-exact.
	data, err := MarshalLoop(specialFloatLoop())
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalLoop(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range back.Arrays[0].InitF {
		want := specialFloats[i]
		if math.Float64bits(f) != math.Float64bits(want) && !(math.IsNaN(f) && math.IsNaN(want)) {
			t.Errorf("element %d decoded as %g, want %g", i, f, want)
		}
	}
}

// TestF64DecoderMatchesReference: the direct number parser accepts and
// rejects exactly what the per-element encoding/json decoder did, with the
// same value and the same error.
func TestF64DecoderMatchesReference(t *testing.T) {
	literals := []string{
		`0`, `-0`, `1.5`, `-2.5e-7`, `1e21`, `1E+2`, `5e-324`, `1e-400`,
		`1.7976931348623157e308`, `123456789012345678901234567890`,
		`null`, `true`, `false`, `{}`, `{"a":1}`, `[1]`, `"nan"`, `"inf"`, `"-inf"`,
		`"bogus"`, `""`, `1e400`, `-1e400`,
	}
	for _, lit := range literals {
		var got []jsonF64
		var want []refF64
		gotErr := json.Unmarshal([]byte("["+lit+"]"), &got)
		wantErr := json.Unmarshal([]byte("["+lit+"]"), &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("%s: accept/reject differs: got err %v, reference err %v", lit, gotErr, wantErr)
			continue
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Errorf("%s: error %q, reference %q", lit, gotErr, wantErr)
			}
			continue
		}
		g, w := float64(got[0]), float64(want[0])
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Errorf("%s: decoded %g, reference %g", lit, g, w)
		}
	}
}
