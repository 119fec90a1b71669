package serve

import (
	"bytes"
	"testing"

	"metascope/internal/archive"
)

// TestBundleRoundTrip: encoding an archive and decoding the bundle
// yields the same trace content — the digests agree — with one
// metahost file system per top-level directory.
func TestBundleRoundTrip(t *testing.T) {
	b := oracleBundles(t)[0] // grid scenario: two metahost file systems

	mounts, metahosts, dir, err := DecodeZip(b.zip, DefaultMaxUploadBytes)
	if err != nil {
		t.Fatal(err)
	}
	if len(metahosts) != 2 {
		t.Fatalf("decoded %d metahosts, want 2 (grid archive)", len(metahosts))
	}
	if !archive.IsExperimentDir(dir) {
		t.Fatalf("decoded archive dir %q is not an experiment dir", dir)
	}

	d1, err := Digest(mounts, metahosts, dir)
	if err != nil {
		t.Fatal(err)
	}

	// Re-encode the decoded mounts and decode again: the digest is a
	// fixed point of the round trip.
	var buf bytes.Buffer
	if err := EncodeZip(&buf, mounts, metahosts, dir); err != nil {
		t.Fatal(err)
	}
	m2, mh2, dir2, err := DecodeZip(buf.Bytes(), DefaultMaxUploadBytes)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Digest(m2, mh2, dir2)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("digest changed across round trip: %s vs %s", d1, d2)
	}
}

// TestDigestSensitivity: one flipped byte in one trace changes the
// digest; byte-identical archives digest identically.
func TestDigestSensitivity(t *testing.T) {
	b := oracleBundles(t)[0]
	m1, mh1, dir1, err := DecodeZip(b.zip, DefaultMaxUploadBytes)
	if err != nil {
		t.Fatal(err)
	}
	m2, mh2, dir2, err := DecodeZip(b.zip, DefaultMaxUploadBytes)
	if err != nil {
		t.Fatal(err)
	}
	d1, _ := Digest(m1, mh1, dir1)
	d2, _ := Digest(m2, mh2, dir2)
	if d1 != d2 {
		t.Fatalf("identical bytes, different digests: %s vs %s", d1, d2)
	}

	// Flip one byte of one trace on the second copy.
	fs := m2.For(mh2[0])
	names, err := fs.List(dir2)
	if err != nil {
		t.Fatal(err)
	}
	flipped := false
	for _, name := range names {
		if _, ok := archive.TraceRank(name); !ok {
			continue
		}
		data, err := archive.ReadFile(fs, dir2+"/"+name)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xFF
		w, err := fs.(*archive.MemFS).Create(dir2 + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		flipped = true
		break
	}
	if !flipped {
		t.Fatal("no trace file to flip")
	}
	d3, err := Digest(m2, mh2, dir2)
	if err != nil {
		t.Fatal(err)
	}
	if d3 == d1 {
		t.Fatal("digest ignored a flipped trace byte")
	}
}

// TestDigestSkipsWhatTheLoaderSkips: files the loader does not read as
// traces, however close their names come, do not change the digest.
func TestDigestSkipsWhatTheLoaderSkips(t *testing.T) {
	b := oracleBundles(t)[0]
	m1, mh1, dir1, err := DecodeZip(b.zip, DefaultMaxUploadBytes)
	if err != nil {
		t.Fatal(err)
	}
	m2, mh2, dir2, err := DecodeZip(b.zip, DefaultMaxUploadBytes)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"trace.x.mscp", "trace.-1.mscp"} {
		w, err := m2.For(mh2[0]).(*archive.MemFS).Create(dir2 + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write([]byte("not a trace")); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	d1, _ := Digest(m1, mh1, dir1)
	d2, _ := Digest(m2, mh2, dir2)
	if d1 != d2 {
		t.Fatalf("files the loader skips changed the digest: %s vs %s", d1, d2)
	}
}

// TestDecodeZipBudget: the decompressed-size budget cuts off inflation
// with a structured error, under as well as exactly at the limit.
func TestDecodeZipBudget(t *testing.T) {
	var buf bytes.Buffer
	payload := bytes.Repeat([]byte{0x5A}, 4096)
	data := newZipWith(t, &buf, map[string][]byte{
		"mh0/epik_x/trace.0.mscp": payload,
	})

	if _, _, _, err := DecodeZip(data, 4095); err == nil {
		t.Fatal("budget one byte under the content decoded anyway")
	}
	if _, _, _, err := DecodeZip(data, 4096); err != nil {
		t.Fatalf("budget exactly at the content failed: %v", err)
	}
}

// TestDecodeZipRejectsHostileEntries covers the validation matrix at
// the decoder level (the HTTP-level test covers the same through the
// endpoint).
func TestDecodeZipRejectsHostileEntries(t *testing.T) {
	for _, entry := range []string{
		"trace.0.mscp",
		"mh0/trace.0.mscp",
		"mh0/epik_x/deep/trace.0.mscp",
		"mh0/epik_x/..",
		"mh0/../trace.0.mscp",
		"mh0/notepik/trace.0.mscp",
		`mh0\epik_x\trace.0.mscp`,
	} {
		var buf bytes.Buffer
		data := newZipWith(t, &buf, map[string][]byte{entry: []byte("x")})
		if _, _, _, err := DecodeZip(data, 1024); err == nil {
			t.Errorf("entry %q decoded without error", entry)
		}
	}
}

// TestDecodeZipEmpty: empty and fileless bundles are structured
// errors.
func TestDecodeZipEmpty(t *testing.T) {
	if _, _, _, err := DecodeZip([]byte("PK"), 1024); err == nil {
		t.Error("truncated zip magic decoded")
	}
	var buf bytes.Buffer
	data := newZipWith(t, &buf, map[string][]byte{})
	if _, _, _, err := DecodeZip(data, 1024); err == nil {
		t.Error("bundle without entries decoded")
	}
}

// TestDigestNoTraces: an archive directory without trace files cannot
// be digested (nothing to analyze).
func TestDigestNoTraces(t *testing.T) {
	var buf bytes.Buffer
	data := newZipWith(t, &buf, map[string][]byte{
		"mh0/epik_x/notes.txt": []byte("hello"),
	})
	mounts, mhs, dir, err := DecodeZip(data, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Digest(mounts, mhs, dir); err == nil {
		t.Fatal("digest of a traceless archive succeeded")
	}
}
