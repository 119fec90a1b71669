package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// MSCP format v2: a columnar, delta-compressed block encoding of the
// event stream. The header (magic, version byte 2, location, sync
// block, region table, communicator definitions) is byte-identical to
// v1 — the region and metahost dictionaries were already hoisted there
// — followed by:
//
//	event count (uvarint) | block size (uvarint) | blocks…
//
// Each block frames up to blockSize consecutive events as
//
//	payload length (uvarint) | payload
//
// and the payload holds a column directory followed by per-field
// columns in a fixed order:
//
//	n (uvarint)              events in this block (1 ≤ n ≤ block size)
//	column lengths           8 uvarints: the byte lengths of the
//	                         times-hi, regions, comms, peers, tags,
//	                         bytes, colls, and roots columns
//	kinds                    n raw bytes
//	times-lo                 n × 4 raw bytes: the low 32 bits of each
//	                         time stamp's IEEE 754 bit pattern
//	times-hi                 n zig-zag varints: deltas of the high 32
//	                         bits of the bit pattern
//	regions                  one delta varint per Enter/Exit
//	comms                    one delta varint per Send/Recv/CollExit
//	peers                    one delta varint per Send/Recv
//	tags                     one delta varint per Send/Recv
//	bytes                    one delta varint per Send/Recv/CollExit
//	colls                    one raw byte per CollExit
//	roots                    one delta varint per CollExit
//
// Every delta chain starts from 0 at the top of each block, so a block
// decodes independently of its predecessors: the streaming decoder can
// resume at any block boundary and a reader can skip blocks using only
// the length prefixes. The split time column is lossless by
// construction (the two halves reassemble the exact bit pattern) and
// plays to the statistics of trace time stamps: the low mantissa bits
// are near-random and stay a fixed-width load, while the slowly moving
// sign/exponent/high-mantissa half delta-encodes to one or two bytes
// per event.
//
// The column directory makes every column's offset computable before
// any event is touched, so decode writes each event in place, column by
// column, in at most three passes over the block: kinds and time stamps
// (a fixed-width load and a usually one-byte varint per event), then the
// region column, then — only in a block that has them — the
// communication columns. No intermediate buffers are built, the columns
// of one block are read in place from a single contiguous slice of the
// backing file image, and the structural checks of StreamValidator ride
// along in the same passes (decodeV2Block).

// Format selects an on-disk trace encoding.
type Format uint8

// Supported formats. The zero value means "default", which resolves to
// FormatV2 (the columnar encoding) everywhere a Format is consumed.
const (
	FormatDefault Format = 0
	FormatV1      Format = 1
	FormatV2      Format = 2
)

// String names the format.
func (f Format) String() string {
	switch f {
	case FormatDefault:
		return "default"
	case FormatV1:
		return "v1"
	case FormatV2:
		return "v2"
	default:
		return fmt.Sprintf("Format(%d)", uint8(f))
	}
}

// ParseFormat maps the CLI spellings "v1"/"1" and "v2"/"2" (and "" for
// the default) to a Format.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "":
		return FormatDefault, nil
	case "v1", "1":
		return FormatV1, nil
	case "v2", "2":
		return FormatV2, nil
	}
	return 0, fmt.Errorf("trace: unknown format %q (want v1 or v2)", s)
}

// UnmarshalText is ParseFormat for documents that carry a format by
// name (encoding.TextUnmarshaler).
func (f *Format) UnmarshalText(text []byte) (err error) {
	*f, err = ParseFormat(string(text))
	return err
}

// FormatOf sniffs the format of an encoded trace image from its magic
// and version byte. It fails with ErrBadMagic on foreign input.
func FormatOf(data []byte) (Format, error) {
	if len(data) < len(magic)+1 {
		return 0, fmt.Errorf("trace: reading magic: %w", io.ErrUnexpectedEOF)
	}
	var m [4]byte
	copy(m[:], data)
	if m != magic {
		return 0, ErrBadMagic
	}
	switch v := data[len(magic)]; v {
	case formatVersion:
		return FormatV1, nil
	case formatVersion2:
		return FormatV2, nil
	default:
		return 0, fmt.Errorf("trace: unsupported format version %d (want %d or %d)",
			v, formatVersion, formatVersion2)
	}
}

const (
	// defaultBlockSize is the encoder's events-per-block choice: large
	// enough to amortize the framing and keep the column loops hot,
	// small enough that a streaming decoder buffers little and a
	// bounded-memory replay window stays fine-grained.
	defaultBlockSize = 4096
	// maxBlockSize bounds the decoder's scratch and the caller's block
	// buffer against hostile headers.
	maxBlockSize = 1 << 18
	// minEventBytesV2 is the minimum encoded size of one v2 event: one
	// kind byte, four raw time-lo bytes, and at least a one-byte
	// time-hi delta. Used to bound the declared event count.
	minEventBytesV2 = 6
	// v2ColumnCount is the number of entries in a block's column
	// directory (the kinds and times-lo columns have implied lengths).
	v2ColumnCount = 8
)

// EncodeV2 writes the trace to w in the MSCP v2 columnar block format
// with the default block size.
func (t *Trace) EncodeV2(w io.Writer) error { return t.encodeV2(w, defaultBlockSize) }

// EncodeFormat writes the trace to w in the requested format;
// FormatDefault resolves to v2.
func (t *Trace) EncodeFormat(w io.Writer, f Format) error {
	switch f {
	case FormatV1:
		return t.Encode(w)
	case FormatDefault, FormatV2:
		return t.EncodeV2(w)
	default:
		return fmt.Errorf("trace: cannot encode unknown format %d", uint8(f))
	}
}

func (t *Trace) encodeV2(w io.Writer, blockSize int) error {
	if blockSize < 1 || blockSize > maxBlockSize {
		return fmt.Errorf("trace: block size %d out of range [1, %d]", blockSize, maxBlockSize)
	}
	e := &encoder{w: bufio.NewWriter(w)}
	if err := t.encodeHeader(e, formatVersion2); err != nil {
		return err
	}
	e.u64(uint64(len(t.Events)))
	e.u64(uint64(blockSize))

	var buf []byte
	var cb v2ColBufs
	for start := 0; start < len(t.Events); start += blockSize {
		end := start + blockSize
		if end > len(t.Events) {
			end = len(t.Events)
		}
		var err error
		buf, err = appendV2Block(buf[:0], &cb, t.Events[start:end])
		if err != nil {
			return err
		}
		e.u64(uint64(len(buf)))
		if e.err == nil {
			_, e.err = e.w.Write(buf)
		}
	}
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}

// v2ColBufs holds the encoder's per-column staging buffers, reused
// across blocks. The varint columns must be staged because their byte
// lengths go into the column directory ahead of them.
type v2ColBufs struct {
	thi, reg, comm, peer, tag, byt, coll, root []byte
}

func (cb *v2ColBufs) reset() {
	cb.thi = cb.thi[:0]
	cb.reg = cb.reg[:0]
	cb.comm = cb.comm[:0]
	cb.peer = cb.peer[:0]
	cb.tag = cb.tag[:0]
	cb.byt = cb.byt[:0]
	cb.coll = cb.coll[:0]
	cb.root = cb.root[:0]
}

func appendZigzag(buf []byte, d int64) []byte {
	return binary.AppendUvarint(buf, uint64((d<<1)^(d>>63)))
}

// appendV2Block appends one encoded block payload for evs to buf,
// staging the varint columns in cb. Every delta chain starts from 0.
func appendV2Block(buf []byte, cb *v2ColBufs, evs []Event) ([]byte, error) {
	cb.reset()
	var tprev, rprev, cprev, pprev, gprev, bprev, oprev int64
	for i := range evs {
		ev := &evs[i]
		hi := int64(math.Float64bits(ev.Time) >> 32)
		cb.thi = appendZigzag(cb.thi, hi-tprev)
		tprev = hi
		switch ev.Kind {
		case KindEnter, KindExit:
			v := int64(ev.Region)
			cb.reg = appendZigzag(cb.reg, v-rprev)
			rprev = v
		case KindSend, KindRecv:
			v := int64(ev.Comm)
			cb.comm = appendZigzag(cb.comm, v-cprev)
			cprev = v
			v = int64(ev.Peer)
			cb.peer = appendZigzag(cb.peer, v-pprev)
			pprev = v
			v = int64(ev.Tag)
			cb.tag = appendZigzag(cb.tag, v-gprev)
			gprev = v
			cb.byt = appendZigzag(cb.byt, ev.Bytes-bprev)
			bprev = ev.Bytes
		case KindCollExit:
			v := int64(ev.Comm)
			cb.comm = appendZigzag(cb.comm, v-cprev)
			cprev = v
			cb.coll = append(cb.coll, byte(ev.Coll))
			v = int64(ev.Root)
			cb.root = appendZigzag(cb.root, v-oprev)
			oprev = v
			cb.byt = appendZigzag(cb.byt, ev.Bytes-bprev)
			bprev = ev.Bytes
		default:
			return nil, fmt.Errorf("trace: cannot encode event of kind %d", ev.Kind)
		}
	}

	buf = binary.AppendUvarint(buf, uint64(len(evs)))
	for _, c := range [v2ColumnCount][]byte{cb.thi, cb.reg, cb.comm, cb.peer, cb.tag, cb.byt, cb.coll, cb.root} {
		buf = binary.AppendUvarint(buf, uint64(len(c)))
	}
	for i := range evs {
		buf = append(buf, byte(evs[i].Kind))
	}
	for i := range evs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(math.Float64bits(evs[i].Time)))
	}
	buf = append(buf, cb.thi...)
	buf = append(buf, cb.reg...)
	buf = append(buf, cb.comm...)
	buf = append(buf, cb.peer...)
	buf = append(buf, cb.tag...)
	buf = append(buf, cb.byt...)
	buf = append(buf, cb.coll...)
	buf = append(buf, cb.root...)
	return buf, nil
}

// posInvalid poisons a column cursor on malformed input: it fails
// every subsequent bounds guard (and stays poisoned through the slow
// varint reader), so the decode passes run through harmlessly and the
// end-of-column checks report the corruption once.
const posInvalid = 1 << 62

// readUvarintSlow decodes one uvarint from p[pos:end]. In the decode
// passes it is the continuation of the short fast paths they spell out;
// malformed or truncated input poisons the cursor.
func readUvarintSlow(p []byte, pos, end int) (uint64, int) {
	var v uint64
	var shift uint
	for i := 0; ; i++ {
		if pos >= end || i == 10 {
			return 0, posInvalid
		}
		b := p[pos]
		pos++
		if b < 0x80 {
			if i == 9 && b > 1 {
				return 0, posInvalid
			}
			return v | uint64(b)<<shift, pos
		}
		v |= uint64(b&0x7f) << shift
		shift += 7
	}
}

// decodeV2BlockSize reads and validates the events-per-block header
// field that follows the event count in a v2 stream.
func decodeV2BlockSize(d *decoder) (int, error) {
	bs := d.u64()
	if d.err != nil {
		return 0, d.err
	}
	if bs < 1 || bs > maxBlockSize {
		return 0, fmt.Errorf("trace: block size %d out of range [1, %d]", bs, maxBlockSize)
	}
	return int(bs), nil
}

// decodeV2Block decodes the next length-prefixed block into dst and
// returns the number of events it held. Every failure is hard
// corruption: a caller whose input may still be growing peeks at the
// length prefix first (BlockReader.NextInto).
//
// It also runs v's checks on the block, unless v is nil. ok reports that
// every event passed them, and then v has advanced past the block;
// otherwise v is untouched and the caller replays the block through
// v.Event for the message, in its own order relative to its own framing
// checks.
//
// This is the hottest loop of archive ingestion (the zero-alloc gates
// in script/check.sh sit on top of it). The column directory is
// resolved into one cursor per column up front; then each event is
// written in place, column by column: pass 1 stores kind and time stamp
// and zeroes the rest, pass 2 walks the region column, and pass 3, only
// in a block with communication events, the communication columns. The
// checks ride along on register state — finite, monotone time and the
// nesting depth in pass 1, known regions in pass 2.
func decodeV2Block(d *decoder, dst []Event, blockSize int, v *StreamValidator) (n int, ok bool, err error) {
	plen := d.u64()
	if d.err != nil {
		return 0, false, d.err
	}
	if plen > uint64(d.remaining()) {
		return 0, false, fmt.Errorf("trace: block payload length %d exceeds remaining input (%d bytes)",
			plen, d.remaining())
	}
	p := d.data[d.pos : d.pos+int(plen)]
	d.pos += int(plen)

	nu, pos := readUvarintSlow(p, 0, len(p))
	if pos == posInvalid || nu < 1 || nu > uint64(blockSize) {
		return 0, false, fmt.Errorf("trace: block event count %d out of range [1, %d]", nu, blockSize)
	}
	n = int(nu)
	if n > len(dst) {
		return 0, false, fmt.Errorf("trace: block of %d events exceeds buffer of %d", n, len(dst))
	}

	// Column directory: byte lengths of the varint/raw columns, from
	// which every column's extent follows. The columns must tile the
	// payload exactly.
	var lens [v2ColumnCount]int
	for j := range lens {
		var l uint64
		l, pos = readUvarintSlow(p, pos, len(p))
		if pos == posInvalid || l > uint64(len(p)) {
			return 0, false, errors.New("trace: corrupt block column directory")
		}
		lens[j] = int(l)
	}
	need := n + 4*n
	for _, l := range lens {
		need += l
	}
	if len(p)-pos != need {
		return 0, false, fmt.Errorf("trace: block columns (%d bytes) do not tile the payload (%d bytes left)",
			need, len(p)-pos)
	}

	dst = dst[:n]
	kinds := p[pos : pos+n]
	pos += n
	lo := p[pos : pos+4*n]
	pos += 4 * n
	var cols [v2ColumnCount][]byte
	for j, l := range lens {
		cols[j] = p[pos : pos+l : pos+l]
		pos += l
	}

	c := v2Check{last: math.Inf(-1), ok: true} // the first event has no predecessor
	var regions *RegionTable
	if v != nil {
		if v.n > 0 {
			c.last = v.lastTime
		}
		c.depth, regions = v.depth, &v.regions
	}
	var used [v2ColumnCount]int
	if used[0], err = decodeV2Stamps(dst, kinds, lo, cols[0], &c); err != nil {
		return 0, false, err
	}
	used[1] = decodeV2Regions(dst, kinds, cols[1], regions, &c)
	if c.comm {
		decodeV2Comms(dst, kinds, &cols, &used)
	}
	for j := range cols {
		if used[j] != len(cols[j]) {
			return 0, false, errors.New("trace: corrupt event block: columns do not match the kinds they serve")
		}
	}
	if c.ok && v != nil {
		v.lastTime, v.depth, v.n = c.last, c.depth, v.n+n
	}
	return n, c.ok, nil
}

// v2Check is the validator state decodeV2Block's passes carry from one
// to the next; each pass holds it in locals while it loops.
type v2Check struct {
	last  float64 // the previous time stamp
	depth int     // regions open
	ok    bool    // every event so far passed
	comm  bool    // the block holds communication events
}

// zigzag maps a decoded uvarint back to the signed delta it encodes.
func zigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// decodeV2Stamps is pass 1: it writes the kind and time stamp of every
// event, zeroing the other fields, and checks that the time is finite
// and monotone and that the nesting stays sound. It returns how many
// bytes of the times-hi column it read; an invalid kind is corruption.
func decodeV2Stamps(dst []Event, kinds, lo, thi []byte, c *v2Check) (int, error) {
	last, depth, ok, comm := c.last, c.depth, c.ok, false
	kinds, lo = kinds[:len(dst)], lo[:4*len(dst)]
	var hi, delta int64
	var u uint64
	pos := 0
	for i := range dst {
		k := EventKind(kinds[i])
		// A time stamp's high word moves by one- and two-byte deltas.
		if pos < len(thi) && thi[pos] < 0x80 {
			delta, pos = zigzag(uint64(thi[pos])), pos+1
		} else if pos+1 < len(thi) && thi[pos+1] < 0x80 {
			delta, pos = zigzag(uint64(thi[pos]&0x7f)|uint64(thi[pos+1])<<7), pos+2
		} else {
			u, pos = readUvarintSlow(thi, pos, len(thi))
			delta = zigzag(u)
		}
		hi += delta
		t := math.Float64frombits(uint64(uint32(hi))<<32 | uint64(binary.LittleEndian.Uint32(lo[4*i:4*i+4])))
		dst[i] = Event{Time: t, Kind: k}
		if !(t >= last) {
			ok = false // before its predecessor, or NaN
		}
		last = t
		switch k {
		case KindEnter:
			depth++
		case KindExit:
			depth--
			if depth < 0 {
				ok = false
			}
		case KindSend, KindRecv, KindCollExit:
			comm = true
			if depth == 0 {
				ok = false
			}
		default:
			return 0, fmt.Errorf("trace: block event %d has invalid kind %d", i, k)
		}
	}
	// Ordered time stamps are all finite when the first and the last are.
	if first := dst[0].Time; first-first != 0 || last-last != 0 {
		ok = false
	}
	c.last, c.depth, c.ok, c.comm = last, depth, ok, comm
	return pos, nil
}

// decodeV2Regions is pass 2: it writes the region of every Enter and
// Exit and checks that an Enter names a region the header declares, in
// regions unless that is nil. It returns how many bytes of the regions
// column it read.
func decodeV2Regions(dst []Event, kinds, col []byte, regions *RegionTable, c *v2Check) int {
	ok := c.ok
	kinds = kinds[:len(dst)]
	var reg, delta int64
	var u uint64
	pos := 0
	for i := range dst {
		k := EventKind(kinds[i])
		if k != KindEnter && k != KindExit {
			continue
		}
		if pos < len(col) && col[pos] < 0x80 {
			delta, pos = zigzag(uint64(col[pos])), pos+1
		} else {
			u, pos = readUvarintSlow(col, pos, len(col))
			delta = zigzag(u)
		}
		reg += delta
		id := RegionID(uint32(reg))
		dst[i].Region = id
		if k == KindEnter && regions != nil && regions.Lookup(id) == nil {
			ok = false
		}
	}
	c.ok = ok
	return pos
}

// decodeV2Comms is pass 3, for a block with communication events: it
// writes their fields from the comms, peers, tags, bytes, colls and
// roots columns and records in used how many bytes of each it read.
func decodeV2Comms(dst []Event, kinds []byte, cols *[v2ColumnCount][]byte, used *[v2ColumnCount]int) {
	comm, peer, tag, byt, coll, root := cols[2], cols[3], cols[4], cols[5], cols[6], cols[7]
	var cp, pp, gp, bp, lp, rp int
	var cprev, pprev, gprev, bprev, oprev, delta int64
	var u uint64
	kinds = kinds[:len(dst)]
	for i := range dst {
		ev := &dst[i]
		switch EventKind(kinds[i]) {
		case KindSend, KindRecv:
			if cp < len(comm) && comm[cp] < 0x80 {
				delta, cp = zigzag(uint64(comm[cp])), cp+1
			} else {
				u, cp = readUvarintSlow(comm, cp, len(comm))
				delta = zigzag(u)
			}
			cprev += delta
			if pp < len(peer) && peer[pp] < 0x80 {
				delta, pp = zigzag(uint64(peer[pp])), pp+1
			} else {
				u, pp = readUvarintSlow(peer, pp, len(peer))
				delta = zigzag(u)
			}
			pprev += delta
			if gp < len(tag) && tag[gp] < 0x80 {
				delta, gp = zigzag(uint64(tag[gp])), gp+1
			} else {
				u, gp = readUvarintSlow(tag, gp, len(tag))
				delta = zigzag(u)
			}
			gprev += delta
			if bp < len(byt) && byt[bp] < 0x80 {
				delta, bp = zigzag(uint64(byt[bp])), bp+1
			} else {
				u, bp = readUvarintSlow(byt, bp, len(byt))
				delta = zigzag(u)
			}
			bprev += delta
			ev.Comm, ev.Peer, ev.Tag, ev.Bytes = int32(cprev), int32(pprev), int32(gprev), bprev
		case KindCollExit:
			if cp < len(comm) && comm[cp] < 0x80 {
				delta, cp = zigzag(uint64(comm[cp])), cp+1
			} else {
				u, cp = readUvarintSlow(comm, cp, len(comm))
				delta = zigzag(u)
			}
			cprev += delta
			if lp < len(coll) {
				ev.Coll = CollOp(coll[lp])
				lp++
			} else {
				lp = posInvalid
			}
			if rp < len(root) && root[rp] < 0x80 {
				delta, rp = zigzag(uint64(root[rp])), rp+1
			} else {
				u, rp = readUvarintSlow(root, rp, len(root))
				delta = zigzag(u)
			}
			oprev += delta
			if bp < len(byt) && byt[bp] < 0x80 {
				delta, bp = zigzag(uint64(byt[bp])), bp+1
			} else {
				u, bp = readUvarintSlow(byt, bp, len(byt))
				delta = zigzag(u)
			}
			bprev += delta
			ev.Comm, ev.Root, ev.Bytes = int32(cprev), int32(oprev), bprev
		}
	}
	used[2], used[3], used[4], used[5], used[6], used[7] = cp, pp, gp, bp, lp, rp
}

// BlockReader decodes a v2 trace image block by block: the header is
// decoded eagerly, then each call materializes one block of events.
// Next decodes into a caller-owned buffer and performs no allocations —
// the zero-alloc gates in script/check.sh depend on that. NextInto is
// the block hand-over the replay's rank logs are fed by: it validates
// what it decodes, and it asks the consumer for room only once a whole
// plausible block is present, so it also serves an image that is still
// growing (a live upload, see ChunkDecoder), where "not here yet" is not
// corruption.
//
// On an image that is still growing, d.streaming is set and d.data is
// re-pointed as bytes arrive.
type BlockReader struct {
	d       decoder
	t       *Trace
	val     *StreamValidator // NextInto's checks, block to block; nil until it first runs
	total   int
	bs      int
	start   int // byte offset of the first block, for Reset
	decoded int
}

// NewBlockReader decodes the header of a v2 trace image and returns a
// reader positioned at the first event block. Strings are interned
// through in when non-nil. v1 images are rejected: the row stream has
// no block structure to iterate (use DecodeBytesInterned instead).
func NewBlockReader(data []byte, in *Interner) (*BlockReader, error) {
	r := &BlockReader{d: decoder{data: data, intern: in}}
	if err := r.readHeader(); err != nil {
		return nil, err
	}
	return r, nil
}

// readHeader decodes the image's header from its first byte and leaves
// the reader at the first event block. A growing image cannot bound the
// declared event count by the bytes present, only by the absolute cap.
func (r *BlockReader) readHeader() error {
	t, ne, err := decodeHeader(&r.d)
	if err != nil {
		return err
	}
	if r.d.version != formatVersion2 {
		return fmt.Errorf("trace: BlockReader wants format v%d, image is v%d",
			formatVersion2, r.d.version)
	}
	minBytes := minEventBytesV2
	if r.d.streaming {
		minBytes = 0
	}
	if !r.d.checkCount("event", ne, minBytes, maxEventCount) {
		return r.d.err
	}
	bs, err := decodeV2BlockSize(&r.d)
	if err != nil {
		return err
	}
	r.t, r.total, r.bs = t, int(ne), bs
	r.start = r.d.pos
	return nil
}

// Reset rewinds the reader to the first event block without
// reallocating, so one reader can iterate the same image repeatedly.
// Only a complete image can be rewound: a growing one drops the bytes
// it has decoded, so there is no first block to go back to.
func (r *BlockReader) Reset() {
	r.d.pos = r.start
	r.d.err = nil
	r.decoded = 0
	if r.val != nil {
		r.val.depth, r.val.lastTime, r.val.n = 0, 0, 0
	}
}

// Trace returns the decoded header: location, sync data, region table,
// and communicator definitions, with a nil event slice.
func (r *BlockReader) Trace() *Trace { return r.t }

// Total returns the declared event count of the stream.
func (r *BlockReader) Total() int { return r.total }

// Decoded returns the number of events decoded so far.
func (r *BlockReader) Decoded() int { return r.decoded }

// BlockSize returns the encoder's events-per-block choice; a buffer of
// this length accommodates any block Next produces.
func (r *BlockReader) BlockSize() int { return r.bs }

// Next decodes the next block into dst and returns the number of
// events written, or io.EOF once every declared event was decoded. It
// does not validate the events: the one-shot decode leaves that to
// (*Trace).Validate, as it does for v1.
func (r *BlockReader) Next(dst []Event) (int, error) {
	if r.decoded >= r.total {
		return 0, io.EOF
	}
	n, _, err := decodeV2Block(&r.d, dst, r.bs, nil)
	if err != nil {
		return 0, err
	}
	if n > r.total-r.decoded {
		return 0, r.overDeclared()
	}
	r.decoded += n
	return n, nil
}

func (r *BlockReader) overDeclared() error {
	return fmt.Errorf("trace %v: blocks hold more events than the declared count %d", r.t.Loc, r.total)
}

// trailing rejects bytes after the last declared event.
func (r *BlockReader) trailing() error { return trailing(&r.d, r.t, r.total) }

// NextInto decodes the next block into room obtained from reserve,
// validates it and returns it; the block belongs to the caller, the
// reader keeps no reference to it. A nil block with a nil error means
// every declared event has been decoded or, on a growing image, that the
// next block has not fully arrived.
//
// reserve(n) must return room for exactly n events. It is called at
// most once, and only when the whole payload is present and its event
// count n fits the block size, the events the stream still owes and the
// payload's bytes — so what a consumer allocates is bounded by what was
// actually uploaded, whatever the header declares.
//
// The events pass exactly the checks (*Trace).Validate applies, with
// its messages, and the block that completes the declared count also
// closes every region. A block with several faults reports the first
// of: its framing, columns or kinds; more events than declared; bytes
// after the last declared event; its first invalid event; regions left
// open. On a complete image a block cut short is an error too.
func (r *BlockReader) NextInto(reserve func(n int) []Event) ([]Event, error) {
	if r.val == nil {
		r.val = NewStreamValidator(r.t)
	}
	if r.decoded == r.total {
		return nil, r.trailing()
	}
	owed := uint64(r.total - r.decoded)
	n, length, ok := peekV2Block(r.d.data[r.d.pos:])
	if !ok && r.d.streaming {
		return nil, nil
	}
	var dst []Event
	switch {
	case !ok, n < 1, n > uint64(r.bs):
		// decodeV2Block rejects the framing or the count before it looks
		// at dst.
	case n > owed || n > uint64(length/minEventBytesV2):
		// The block cannot be valid. Decode it into scratch, bounded by
		// the largest legal block, only to report what the decoder always
		// reported for these bytes.
		dst = make([]Event, n)
	default:
		dst = reserve(int(n))
	}
	got, ok, err := decodeV2Block(&r.d, dst, r.bs, r.val)
	if err != nil {
		return nil, err
	}
	if uint64(got) > owed {
		return nil, r.overDeclared()
	}
	blk := dst[:got]
	r.decoded += got
	last := r.decoded == r.total
	if last {
		if err := r.trailing(); err != nil {
			return nil, err
		}
	}
	for i := 0; !ok && i < len(blk); i++ {
		if err := r.val.Event(&blk[i]); err != nil {
			return nil, err
		}
	}
	if last {
		if err := r.val.Close(); err != nil {
			return nil, err
		}
	}
	return blk, nil
}

// peekV2Block reads the length prefix and the event count of the v2
// block at the head of p without consuming anything. ok is false while
// the block is incomplete; length is its encoded size, prefix included.
// A malformed prefix or count reports ok with n = 0, which
// decodeV2Block then rejects with its own message.
func peekV2Block(p []byte) (n uint64, length int, ok bool) {
	plen, pos := readUvarintSlow(p, 0, len(p))
	if pos == posInvalid {
		// Ten bytes always settle a varint; fewer may just be short.
		return 0, 0, len(p) >= binary.MaxVarintLen64
	}
	if plen > uint64(len(p)-pos) {
		return 0, 0, false
	}
	length = pos + int(plen)
	if n, pos = readUvarintSlow(p, pos, length); pos == posInvalid {
		n = 0
	}
	return n, length, true
}
