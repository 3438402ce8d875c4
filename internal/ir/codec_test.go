package ir_test

import (
	"bytes"
	"strings"
	"testing"

	"fgp/internal/fuzz"
	"fgp/internal/ir"
	"fgp/internal/kernels"
	"fgp/internal/kernels/tier2"
)

// catalogLoops returns the 18 paper kernels.
func catalogLoops() []*ir.Loop {
	var out []*ir.Loop
	for _, k := range kernels.All() {
		out = append(out, k.Build())
	}
	return out
}

// corpusLoops returns the catalog followed by the tier-2 corpus.
func corpusLoops(tb testing.TB) []*ir.Loop {
	tb.Helper()
	out := catalogLoops()
	t2, err := tier2.All()
	if err != nil {
		tb.Fatal(err)
	}
	for _, k := range t2 {
		l, err := k.Build()
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, l)
	}
	return out
}

func marshalBoth(tb testing.TB, l *ir.Loop) (got, want []byte) {
	tb.Helper()
	got, err := ir.MarshalLoop(l)
	if err != nil {
		tb.Fatalf("%s: %v", l.Name, err)
	}
	want, err = ir.RefMarshalLoop(l)
	if err != nil {
		tb.Fatalf("%s: reference: %v", l.Name, err)
	}
	return got, want
}

// TestMarshalLoopMatchesReference pins MarshalLoop byte-for-byte to the
// reference encoder over the catalog, tier-2 and generated loops: the
// encoding is every content address and disk-store key, so it must not
// drift.
func TestMarshalLoopMatchesReference(t *testing.T) {
	loops := corpusLoops(t)
	seeds := 3000
	if testing.Short() {
		seeds = 300
	}
	cfg := fuzz.GenConfig{Trips: 64, MaxStmts: 24, MaxDepth: 4}
	for seed := 0; seed < seeds; seed++ {
		loops = append(loops, fuzz.Generate(uint64(seed), cfg))
	}
	for i, l := range loops {
		got, want := marshalBoth(t, l)
		if !bytes.Equal(got, want) {
			t.Fatalf("loop %d (%s): MarshalLoop differs from the reference encoder at byte %d",
				i, l.Name, firstDiff(got, want))
		}
	}
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// specialLiteralLoops wraps each float literal as the data of a one-element
// array, accepted or not.
func specialLiteralLoops() [][]byte {
	var out [][]byte
	for _, lit := range []string{
		`0`, `-0`, `1e-6`, `9.999999e-7`, `1e21`, `9.99999e20`, `5e-324`,
		`1.7976931348623157e308`, `0.1`, `0.3333333333333333`,
		`"nan"`, `"inf"`, `"-inf"`, `"bogus"`, `null`, `true`, `{}`, `1e400`,
	} {
		out = append(out, []byte(`{"name":"s","index":"i","start":0,"end":1,"step":1,`+
			`"arrays":[{"name":"a","kind":"f64","f64":[`+lit+`]}],`+
			`"body":[{"line":1,"assign":{"temp":"x","kind":"f64","expr":{"load":{"array":"a","kind":"f64","index":{"temp":"i","kind":"i64"}}}}}],`+
			`"liveout":["x"]}`))
	}
	return out
}

// FuzzUnmarshalLoop drives the wire decoder fgpd runs on untrusted inline
// IR. It must never panic, and every accepted input must re-encode to the
// reference encoder's bytes and decode back to the same canonical bytes.
func FuzzUnmarshalLoop(f *testing.F) {
	for _, l := range corpusLoops(f) {
		data, err := ir.MarshalLoop(l)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, data := range specialLiteralLoops() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := ir.UnmarshalLoop(data)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "ir: ") {
				t.Fatalf("unstructured rejection: %v", err)
			}
			return
		}
		got, want := marshalBoth(t, l)
		if !bytes.Equal(got, want) {
			t.Fatalf("MarshalLoop differs from the reference encoder at byte %d", firstDiff(got, want))
		}
		back, err := ir.UnmarshalLoop(got)
		if err != nil {
			t.Fatalf("canonical encoding of an accepted loop was rejected: %v", err)
		}
		again, err := ir.MarshalLoop(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, got) {
			t.Fatalf("decode and re-encode of the canonical bytes changed them at byte %d", firstDiff(again, got))
		}
	})
}

func BenchmarkMarshalLoop(b *testing.B) {
	loops := catalogLoops()
	var size int64
	for _, l := range loops {
		data, err := ir.MarshalLoop(l)
		if err != nil {
			b.Fatal(err)
		}
		size += int64(len(data))
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range loops {
			if _, err := ir.MarshalLoop(l); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkUnmarshalLoop(b *testing.B) {
	var encoded [][]byte
	var size int64
	for _, l := range catalogLoops() {
		data, err := ir.MarshalLoop(l)
		if err != nil {
			b.Fatal(err)
		}
		encoded = append(encoded, data)
		size += int64(len(data))
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, data := range encoded {
			if _, err := ir.UnmarshalLoop(data); err != nil {
				b.Fatal(err)
			}
		}
	}
}
