package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"metascope/internal/conformance"
	"metascope/internal/pattern"
	"metascope/internal/trace"
)

// fixtureTrace measures a small deterministic scenario and returns one
// rank's trace encoded as v1 bytes.
func fixtureTrace(t *testing.T) []byte {
	t.Helper()
	s := conformance.Scenario{
		Name: "convert", Base: pattern.LateSender,
		Delays: []float64{0.137, 0}, Align: 1.0, Bytes: 2048,
		Format: trace.FormatV1,
	}
	e, err := s.NewExperiment(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(s.Body); err != nil {
		t.Fatal(err)
	}
	traces, err := e.Traces()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := traces[0].EncodeFormat(&buf, trace.FormatV1); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestConvertRoundTrip: converting v1 -> v2 -> v1 in place must
// reproduce the original file byte for byte, and the intermediate file
// must actually be v2.
func TestConvertRoundTrip(t *testing.T) {
	orig := fixtureTrace(t)
	path := filepath.Join(t.TempDir(), "trace.0.mscp")
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := convert(path, trace.FormatV2, io.Discard); err != nil {
		t.Fatal(err)
	}
	mid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if f, err := trace.FormatOf(mid); err != nil || f != trace.FormatV2 {
		t.Fatalf("after convert: format %v, err %v; want v2", f, err)
	}

	if err := convert(path, trace.FormatV1, io.Discard); err != nil {
		t.Fatal(err)
	}
	back, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, orig) {
		t.Errorf("v1 -> v2 -> v1 round trip is not byte-identical (%d vs %d bytes)", len(back), len(orig))
	}

	// Idempotence: re-converting to the format a file already has must
	// rewrite identical bytes.
	if err := convert(path, trace.FormatV1, io.Discard); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, orig) {
		t.Error("converting to the current format changed the bytes")
	}
}

// TestConvertRejectsGarbage: a corrupt input must fail cleanly and
// leave the original file untouched.
func TestConvertRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.mscp")
	junk := []byte("not a trace at all")
	if err := os.WriteFile(path, junk, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := convert(path, trace.FormatV2, io.Discard); err == nil {
		t.Fatal("convert accepted garbage input")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, junk) {
		t.Error("failed convert modified the input file")
	}
}
