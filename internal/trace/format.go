package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// The binary trace format ("MSCP"): a little-endian, varint-based
// encoding in the spirit of EPILOG. Layout:
//
//	magic "MSCP" | version u8
//	location: rank, metahost, node, cpu (uvarint), metahost name (string)
//	sync block: master ranks, flags, 6 measurements (3 × f64 each)
//	region table: count, then (id, kind, name) per region
//	event stream: count, then per event a kind byte followed by the
//	              fields meaningful for that kind
//
// Strings are uvarint length + bytes. Floats are 8-byte IEEE 754.
// Signed integers use zig-zag varints.

var magic = [4]byte{'M', 'S', 'C', 'P'}

const (
	formatVersion  = 1
	formatVersion2 = 2
)

// ErrBadMagic is returned when decoding a stream that is not a
// metascope trace file.
var ErrBadMagic = errors.New("trace: bad magic (not a metascope trace file)")

type encoder struct {
	w   *bufio.Writer
	err error
	buf [binary.MaxVarintLen64]byte
}

func (e *encoder) u64(v uint64) {
	if e.err != nil {
		return
	}
	n := binary.PutUvarint(e.buf[:], v)
	_, e.err = e.w.Write(e.buf[:n])
}

func (e *encoder) i64(v int64) {
	e.u64(uint64((v << 1) ^ (v >> 63))) // zig-zag
}

func (e *encoder) f64(v float64) {
	if e.err != nil {
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	_, e.err = e.w.Write(b[:])
}

func (e *encoder) str(s string) {
	e.u64(uint64(len(s)))
	if e.err != nil {
		return
	}
	_, e.err = e.w.WriteString(s)
}

func (e *encoder) byte(b byte) {
	if e.err != nil {
		return
	}
	e.err = e.w.WriteByte(b)
}

// Interner deduplicates strings that repeat across decoded traces.
// Every rank's trace replicates the same region table and metahost
// names, so decoding an archive of N ranks without interning holds N
// copies of every name. An Interner shared across decodes (safe for
// concurrent use) keeps exactly one.
type Interner struct {
	mu sync.Mutex
	m  map[string]string
}

// NewInterner returns an empty interner.
func NewInterner() *Interner { return &Interner{m: make(map[string]string)} }

// intern returns the canonical string for b, allocating only on first
// sight. The map lookup with a string(b) key does not allocate.
func (in *Interner) intern(b []byte) string {
	in.mu.Lock()
	s, ok := in.m[string(b)]
	if !ok {
		s = string(b)
		in.m[s] = s
	}
	in.mu.Unlock()
	return s
}

// Len returns the number of distinct strings interned so far.
func (in *Interner) Len() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.m)
}

// decoder reads the MSCP format directly from a byte slice: varints,
// floats, and strings are decoded without per-byte reader calls, and
// every declared count is validated against the remaining input before
// anything is allocated, so a corrupt header cannot make the analyzer
// allocate unbounded memory.
type decoder struct {
	data   []byte
	pos    int
	err    error
	intern *Interner
	// version records the format version byte decodeHeader saw, so the
	// caller can dispatch between the v1 row stream and the v2 block
	// stream that follow the (identical) header.
	version byte
	// streaming marks an image that is still growing (ChunkDecoder sets
	// and clears it): a declared count that exceeds the bytes buffered so
	// far is not corruption — the missing bytes may simply not have
	// arrived yet — so the bound check reports an
	// io.ErrUnexpectedEOF-wrapped error the chunk decoder treats as "feed
	// me more", and BlockReader.NextInto waits for a block that is not
	// whole yet rather than refusing it. The absolute caps still reject
	// absurd headers outright.
	streaming bool
}

func (d *decoder) remaining() int { return len(d.data) - d.pos }

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	var v uint64
	var shift uint
	for i := 0; ; i++ {
		if d.pos >= len(d.data) {
			d.err = fmt.Errorf("trace: truncated varint: %w", io.ErrUnexpectedEOF)
			return 0
		}
		b := d.data[d.pos]
		d.pos++
		if b < 0x80 {
			if i == 9 && b > 1 {
				d.err = errors.New("trace: varint overflows 64 bits")
				return 0
			}
			return v | uint64(b)<<shift
		}
		if i == 9 {
			d.err = errors.New("trace: varint overflows 64 bits")
			return 0
		}
		v |= uint64(b&0x7f) << shift
		shift += 7
	}
}

func (d *decoder) i64() int64 {
	u := d.u64()
	return int64(u>>1) ^ -int64(u&1)
}

func (d *decoder) f64() float64 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 8 {
		d.err = fmt.Errorf("trace: truncated float: %w", io.ErrUnexpectedEOF)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.pos:]))
	d.pos += 8
	return v
}

func (d *decoder) str() string {
	n := d.u64()
	if d.err != nil {
		return ""
	}
	if n > 1<<20 {
		d.err = fmt.Errorf("trace: implausible string length %d", n)
		return ""
	}
	if int(n) > d.remaining() {
		d.err = fmt.Errorf("trace: truncated string: %w", io.ErrUnexpectedEOF)
		return ""
	}
	b := d.data[d.pos : d.pos+int(n)]
	d.pos += int(n)
	if d.intern != nil {
		return d.intern.intern(b)
	}
	return string(b)
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.data) {
		d.err = fmt.Errorf("trace: truncated byte: %w", io.ErrUnexpectedEOF)
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

// checkCount validates a declared element count against the remaining
// input, given the minimum encoded size of one element. The count cap
// rejects absurd headers even on huge inputs; the remaining-input bound
// rejects counts a truncated or corrupted file cannot possibly satisfy
// BEFORE the corresponding slice is allocated.
func (d *decoder) checkCount(what string, n uint64, minBytes, cap int) bool {
	if d.err != nil {
		return false
	}
	if n > uint64(cap) {
		d.err = fmt.Errorf("trace: implausible %s count %d", what, n)
		return false
	}
	if int(n)*minBytes > d.remaining() {
		if d.streaming {
			d.err = fmt.Errorf("trace: %s table incomplete: %w", what, io.ErrUnexpectedEOF)
		} else {
			d.err = fmt.Errorf("trace: declared %s count %d exceeds remaining input (%d bytes)",
				what, n, d.remaining())
		}
		return false
	}
	return true
}

func encodeMeasurement(e *encoder, m [3]float64) {
	e.f64(m[0])
	e.f64(m[1])
	e.f64(m[2])
}

// encodeHeader writes everything before the event stream — magic, the
// given version byte, location, sync block, region table, communicator
// definitions — shared by the v1 row encoder and the v2 block encoder
// (the header layout is byte-identical across versions).
func (t *Trace) encodeHeader(e *encoder, version byte) error {
	if _, err := e.w.Write(magic[:]); err != nil {
		return err
	}
	e.byte(version)

	// Location.
	e.i64(int64(t.Loc.Rank))
	e.i64(int64(t.Loc.Metahost))
	e.i64(int64(t.Loc.Node))
	e.i64(int64(t.Loc.CPU))
	e.str(t.Loc.MetahostName)

	// Sync data.
	s := &t.Sync
	e.i64(int64(s.GlobalMasterRank))
	e.i64(int64(s.LocalMasterRank))
	if s.SharedNodeClock {
		e.byte(1)
	} else {
		e.byte(0)
	}
	for _, m := range []struct{ a, b, c float64 }{
		{s.FlatStart.Local, s.FlatStart.Offset, s.FlatStart.Err},
		{s.FlatEnd.Local, s.FlatEnd.Offset, s.FlatEnd.Err},
		{s.LocalStart.Local, s.LocalStart.Offset, s.LocalStart.Err},
		{s.LocalEnd.Local, s.LocalEnd.Offset, s.LocalEnd.Err},
		{s.MasterStart.Local, s.MasterStart.Offset, s.MasterStart.Err},
		{s.MasterEnd.Local, s.MasterEnd.Offset, s.MasterEnd.Err},
	} {
		encodeMeasurement(e, [3]float64{m.a, m.b, m.c})
	}

	// Region table.
	e.u64(uint64(len(t.Regions)))
	for _, r := range t.Regions {
		e.u64(uint64(r.ID))
		e.byte(byte(r.Kind))
		e.str(r.Name)
	}

	// Communicator definitions.
	e.u64(uint64(len(t.Comms)))
	for _, cd := range t.Comms {
		e.i64(int64(cd.ID))
		e.u64(uint64(len(cd.Ranks)))
		for _, r := range cd.Ranks {
			e.i64(int64(r))
		}
	}
	return e.err
}

// Encode writes the trace to w in the MSCP v1 binary format.
func (t *Trace) Encode(w io.Writer) error {
	e := &encoder{w: bufio.NewWriter(w)}
	if err := t.encodeHeader(e, formatVersion); err != nil {
		return err
	}

	// Events.
	e.u64(uint64(len(t.Events)))
	for i := range t.Events {
		ev := &t.Events[i]
		e.byte(byte(ev.Kind))
		e.f64(ev.Time)
		switch ev.Kind {
		case KindEnter, KindExit:
			e.u64(uint64(ev.Region))
		case KindSend, KindRecv:
			e.i64(int64(ev.Comm))
			e.i64(int64(ev.Peer))
			e.i64(int64(ev.Tag))
			e.i64(ev.Bytes)
		case KindCollExit:
			e.i64(int64(ev.Comm))
			e.byte(byte(ev.Coll))
			e.i64(int64(ev.Root))
			e.i64(ev.Bytes)
		default:
			return fmt.Errorf("trace: cannot encode event of kind %d", ev.Kind)
		}
	}
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}

// DecodeBytes decodes one trace from an in-memory MSCP image. It fails
// with ErrBadMagic on foreign input and with a descriptive error on
// truncation or corruption.
func DecodeBytes(data []byte) (*Trace, error) { return DecodeBytesInterned(data, nil) }

// DecodeBytesInterned is DecodeBytes with the trace's strings (region
// and metahost names) canonicalized through in, so traces decoded with
// a shared interner share one copy of each repeated name. A nil
// interner disables interning.
func DecodeBytesInterned(data []byte, in *Interner) (*Trace, error) {
	if f, _ := FormatOf(data); f == FormatV2 {
		return decodeV2(data, in)
	}
	d := &decoder{data: data, intern: in}
	t, ne, err := decodeHeader(d)
	if err != nil {
		return nil, err
	}
	if !d.checkCount("event", ne, minEventBytes, maxEventCount) {
		return nil, d.err
	}
	if ne > 0 {
		// Allocate only for a non-empty stream so that an encoded empty
		// trace round-trips to a nil slice, not an empty one.
		t.Events = make([]Event, ne)
	}
	for i := range t.Events {
		if err := decodeEvent(d, i, &t.Events[i]); err != nil {
			return nil, err
		}
	}
	if err := trailing(d, t, len(t.Events)); err != nil {
		return nil, err
	}
	return t, nil
}

// trailing rejects bytes after the last of the total declared events, in
// either format.
func trailing(d *decoder, t *Trace, total int) error {
	if rest := d.remaining(); rest > 0 {
		return fmt.Errorf("trace %v: %d trailing byte(s) after %d declared events", t.Loc, rest, total)
	}
	return nil
}

// Minimum encoded sizes, used to bound every declared count against
// the bytes actually present: a region is an id varint, a kind byte,
// and a name-length varint; a communicator is an id varint and a
// member-count varint; a rank is one varint; an event is a kind byte
// and an 8-byte time stamp.
const (
	minRegionBytes = 3
	minCommBytes   = 2
	minRankBytes   = 1
	minEventBytes  = 9

	maxRegionCount = 1 << 20
	maxCommCount   = 1 << 20
	maxMemberCount = 1 << 24
	maxEventCount  = 1 << 28
)

// decodeV2 is the one-shot decode of a v2 image: a BlockReader drained
// into one slice. Bytes after the last block are refused, as NextInto
// refuses them.
func decodeV2(data []byte, in *Interner) (*Trace, error) {
	r, err := NewBlockReader(data, in)
	if err != nil {
		return nil, err
	}
	t := r.Trace()
	if r.Total() > 0 {
		t.Events = make([]Event, r.Total())
	}
	for idx := 0; idx < len(t.Events); {
		n, err := r.Next(t.Events[idx:])
		if err != nil {
			return nil, err
		}
		idx += n
	}
	if err := r.trailing(); err != nil {
		return nil, err
	}
	return t, nil
}

// decodeHeader decodes everything before the event stream — magic,
// version, location, sync block, region table, communicator
// definitions — plus the declared event count. Shared by the v1
// one-shot decode above and by BlockReader.
func decodeHeader(d *decoder) (*Trace, uint64, error) {
	data := d.data
	if len(data) < len(magic) {
		if len(data) == 0 {
			return nil, 0, fmt.Errorf("trace: reading magic: %w", io.EOF)
		}
		return nil, 0, fmt.Errorf("trace: reading magic: %w", io.ErrUnexpectedEOF)
	}
	var m [4]byte
	copy(m[:], data)
	d.pos = len(magic)
	if m != magic {
		return nil, 0, ErrBadMagic
	}
	v := d.byte()
	if d.err != nil {
		return nil, 0, d.err
	}
	if v != formatVersion && v != formatVersion2 {
		return nil, 0, fmt.Errorf("trace: unsupported format version %d (want %d or %d)",
			v, formatVersion, formatVersion2)
	}
	d.version = v

	t := &Trace{}
	t.Loc.Rank = int(d.i64())
	t.Loc.Metahost = int(d.i64())
	t.Loc.Node = int(d.i64())
	t.Loc.CPU = int(d.i64())
	t.Loc.MetahostName = d.str()

	s := &t.Sync
	s.GlobalMasterRank = int(d.i64())
	s.LocalMasterRank = int(d.i64())
	s.SharedNodeClock = d.byte() == 1
	read3 := func() (a, b, c float64) { return d.f64(), d.f64(), d.f64() }
	s.FlatStart.Local, s.FlatStart.Offset, s.FlatStart.Err = read3()
	s.FlatEnd.Local, s.FlatEnd.Offset, s.FlatEnd.Err = read3()
	s.LocalStart.Local, s.LocalStart.Offset, s.LocalStart.Err = read3()
	s.LocalEnd.Local, s.LocalEnd.Offset, s.LocalEnd.Err = read3()
	s.MasterStart.Local, s.MasterStart.Offset, s.MasterStart.Err = read3()
	s.MasterEnd.Local, s.MasterEnd.Offset, s.MasterEnd.Err = read3()

	nr := d.u64()
	if !d.checkCount("region", nr, minRegionBytes, maxRegionCount) {
		return nil, 0, d.err
	}
	t.Regions = make([]Region, nr)
	for i := range t.Regions {
		t.Regions[i].ID = RegionID(d.u64())
		t.Regions[i].Kind = RegionKind(d.byte())
		t.Regions[i].Name = d.str()
	}

	nc := d.u64()
	if !d.checkCount("communicator", nc, minCommBytes, maxCommCount) {
		return nil, 0, d.err
	}
	t.Comms = make([]CommDef, nc)
	for i := range t.Comms {
		t.Comms[i].ID = int32(d.i64())
		nm := d.u64()
		if !d.checkCount("communicator member", nm, minRankBytes, maxMemberCount) {
			return nil, 0, d.err
		}
		t.Comms[i].Ranks = make([]int32, nm)
		for j := range t.Comms[i].Ranks {
			t.Comms[i].Ranks[j] = int32(d.i64())
		}
	}

	ne := d.u64()
	if d.err != nil {
		return nil, 0, d.err
	}
	return t, ne, nil
}

// decodeEvent decodes the i-th event of the stream into ev.
func decodeEvent(d *decoder, i int, ev *Event) error {
	ev.Kind = EventKind(d.byte())
	ev.Time = d.f64()
	switch ev.Kind {
	case KindEnter, KindExit:
		ev.Region = RegionID(d.u64())
	case KindSend, KindRecv:
		ev.Comm = int32(d.i64())
		ev.Peer = int32(d.i64())
		ev.Tag = int32(d.i64())
		ev.Bytes = d.i64()
	case KindCollExit:
		ev.Comm = int32(d.i64())
		ev.Coll = CollOp(d.byte())
		ev.Root = int32(d.i64())
		ev.Bytes = d.i64()
	default:
		if d.err != nil {
			return d.err
		}
		return fmt.Errorf("trace: event %d has invalid kind %d", i, ev.Kind)
	}
	return d.err
}
