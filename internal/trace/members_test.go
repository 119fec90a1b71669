package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// memberLists are member lists a writer may meet: empty, single, the
// world, strided and reversed blocks, repeats and random ranks.
func memberLists(rng *rand.Rand) [][]int32 {
	lists := [][]int32{nil, {5}, {0, 1}, {3, 3, 3}, {0, 1, 1}, {9, 7, 5, 3, 1, 2, 4}}
	for n := range 3 {
		l := make([]int32, 50+n)
		for i := range l {
			l[i] = int32(rng.Intn(8))
		}
		lists = append(lists, l)
	}
	world := make([]int32, 300)
	for i := range world {
		world[i] = int32(i)
	}
	return append(lists, world, []int32{-5, 1<<31 - 1, -1 << 31, 0})
}

// TestRunsCanonical: however a member list is cut into runs, pushRun
// yields the runs that pushing member by member yields, and they expand
// back to the list.
func TestRunsCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, l := range memberLists(rng) {
		var want runs
		for _, x := range l {
			want = want.push(int64(x))
		}
		if got := want.members(int64(len(l))); !slices32Equal(got, l) {
			t.Fatalf("%v expands to %v", l, got)
		}
		for range 20 {
			// Cut l into arbitrary arithmetic pieces: each piece is the
			// longest run from its start with the stride to its next
			// member, or a single member.
			var got runs
			for i := 0; i < len(l); {
				n := 1
				if i+1 < len(l) && rng.Intn(3) > 0 {
					d := int64(l[i+1]) - int64(l[i])
					for i+n < len(l) && int64(l[i+n])-int64(l[i+n-1]) == d && rng.Intn(8) > 0 {
						n++
					}
					got = got.pushRun(run{start: int64(l[i]), count: int64(n), stride: d})
				} else {
					got = got.pushRun(run{start: int64(l[i]), count: 1, stride: int64(rng.Intn(5))})
				}
				i += n
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: pieces give %v, members %v", l, got, want)
			}
		}
	}
}

func slices32Equal(a, b []int32) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestRunHeaderDecodesLikeExplicit: an image whose member lists are runs
// and one that lists every member, in either format and with or without
// an interner, decode to the same Trace.
func TestRunHeaderDecodesLikeExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	traces := append(seedTraces(), runWorldTrace())
	for i, l := range memberLists(rng) {
		tr := sampleTrace()
		tr.Comms = append(tr.Comms, CommDef{ID: int32(10 + i), Ranks: l})
		traces = append(traces, tr)
	}
	for i, tr := range traces {
		for _, f := range []Format{FormatV1, FormatV2} {
			var runImg, explicitImg bytes.Buffer
			if err := tr.EncodeFormat(&runImg, f); err != nil {
				t.Fatal(err)
			}
			if err := tr.EncodeExplicit(&explicitImg, f, defaultBlockSize); err != nil {
				t.Fatal(err)
			}
			in := NewInterner()
			var got []*Trace
			for _, img := range [][]byte{runImg.Bytes(), explicitImg.Bytes()} {
				for _, intern := range []*Interner{nil, in} {
					d, err := DecodeBytesInterned(img, intern)
					if err != nil {
						t.Fatalf("trace %d %v: %v", i, f, err)
					}
					got = append(got, d)
				}
			}
			for _, d := range got {
				want := *tr
				want.Comms = make([]CommDef, 0, len(tr.Comms))
				for _, cd := range tr.Comms {
					want.Comms = append(want.Comms, CommDef{ID: cd.ID, Ranks: append([]int32{}, cd.Ranks...)})
				}
				if !reflect.DeepEqual(d.Comms, want.Comms) || !bytes.Equal(encodeV1Bytes(t, d), encodeV1Bytes(t, tr)) {
					t.Fatalf("trace %d %v: decoded communicators %v, want %v", i, f, d.Comms, want.Comms)
				}
			}
			// The two images through one interner share every member slice.
			for c := range got[1].Comms {
				a, b := got[1].Comms[c].Ranks, got[3].Comms[c].Ranks
				if len(a) > 0 && &a[0] != &b[0] {
					t.Fatalf("trace %d %v: communicator %d decoded twice through one interner is two slices", i, f, got[1].Comms[c].ID)
				}
			}
		}
	}
}

// TestRunHeaderIsSmall: a 4096-rank world and its odd half cost a few
// bytes each, where the explicit list costs two bytes a member (the
// sync block alone is 144 bytes).
func TestRunHeaderIsSmall(t *testing.T) {
	var runImg, explicitImg bytes.Buffer
	tr := runWorldTrace()
	if err := tr.EncodeV2(&runImg); err != nil {
		t.Fatal(err)
	}
	if err := tr.EncodeExplicit(&explicitImg, FormatV2, defaultBlockSize); err != nil {
		t.Fatal(err)
	}
	if runImg.Len() > 250 || explicitImg.Len() < 4096 {
		t.Fatalf("image of a 4096-rank world: %d bytes as runs, %d listed", runImg.Len(), explicitImg.Len())
	}
}

// TestDecodeRefusesMemberAmplification: a header of a few bytes cannot
// make the decoder expand more than maxMembers members — per image
// without an interner, per interner across images — and is refused
// before anything of that size is allocated.
func TestDecodeRefusesMemberAmplification(t *testing.T) {
	huge := withComms(t, 0, 1, 0, 1<<40, 1)
	if len(huge) > 200 {
		t.Fatalf("hostile image is %d bytes", len(huge))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, in := range []*Interner{nil, NewInterner()} {
		if _, err := DecodeBytesInterned(huge, in); err == nil || !strings.Contains(err.Error(), "passes the limit") {
			t.Fatalf("run of 2^40 members: %v", err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
		t.Fatalf("refusing a hostile header allocated %d bytes", grew)
	}

	// One image, two communicators of 600 000 members each: over the
	// per-image bound.
	half := int64(maxMembers/2 + 100)
	two := withComms(t, 0, 2, 0, half, 1, 0, half, 1)
	if _, err := DecodeBytes(two); err == nil || !strings.Contains(err.Error(), "per image") {
		t.Fatalf("two halves in one image: %v", err)
	}
	// One interner, two images with one distinct communicator each: over
	// the per-interner bound; the same communicator again costs nothing.
	in := NewInterner()
	a := withComms(t, 0, 1, 0, half, 1)
	b := withComms(t, 1, 1, 0, half, 1)
	for _, img := range [][]byte{a, a} {
		if _, err := DecodeBytesInterned(img, in); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := DecodeBytesInterned(b, in); err == nil || !strings.Contains(err.Error(), "per analysis") {
		t.Fatalf("second distinct communicator through one interner: %v", err)
	}
	// An image may expand maxMembers members and not one more.
	if _, err := DecodeBytes(withComms(t, 0, 1, 0, maxMembers, 1)); err != nil {
		t.Fatalf("run of maxMembers members: %v", err)
	}
	if _, err := DecodeBytes(withComms(t, 0, 1, 0, maxMembers+1, 1)); err == nil || !strings.Contains(err.Error(), "passes the limit") {
		t.Fatalf("run of maxMembers+1 members: %v", err)
	}
	// A run leaving the int32 ranks is refused.
	if _, err := DecodeBytes(withComms(t, 0, 1, 1<<31-2, 3, 1)); err == nil || !strings.Contains(err.Error(), "rank range") {
		t.Fatalf("run past the int32 ranks: %v", err)
	}
}

// TestDecodeRefusesUnknownHeaderFlags: the sync flags byte has two bits.
func TestDecodeRefusesUnknownHeaderFlags(t *testing.T) {
	img := encodedSeeds(t)[1] // empty trace: the flags byte follows the two master ranks
	d := &decoder{data: img, pos: 5}
	for range 4 {
		d.i64()
	}
	d.str()
	d.i64()
	d.i64()
	bad := append([]byte{}, img...)
	bad[d.pos] |= 0x80
	if _, err := DecodeBytes(bad); err == nil || !strings.Contains(err.Error(), "unknown header flags") {
		t.Fatalf("flags %#x: %v", bad[d.pos], err)
	}
}

// TestChunkedRunHeaderEverySplit: a run-coded header split at any byte,
// or arriving one byte per chunk, through a shared interner, gives the
// Trace the one-shot decode gives.
func TestChunkedRunHeaderEverySplit(t *testing.T) {
	img := runWorldImage(t)
	want, err := DecodeBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInterner()
	check := func(chunks [][]byte) {
		t.Helper()
		c := NewChunkDecoder(in)
		for _, ch := range chunks {
			if err := c.Append(ch); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		got := c.Reader().Trace()
		if got.Loc != want.Loc || !reflect.DeepEqual(got.Comms, want.Comms) || !reflect.DeepEqual(got.Regions, want.Regions) {
			t.Fatalf("chunked header decoded to %v, want %v", got.Comms, want.Comms)
		}
	}
	for cut := 1; cut < len(img); cut++ {
		check(splitAt(img, cut))
	}
	bytewise := make([][]byte, len(img))
	for i := range img {
		bytewise[i] = img[i : i+1]
	}
	check(bytewise)
	if in.members != 4096+2048 {
		t.Fatalf("the interner expanded %d members for one world and its odd half", in.members)
	}
}
