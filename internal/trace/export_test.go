package trace

import (
	"bufio"
	"io"
)

// EncodeV2BlockSize exposes the v2 encoder's block-size knob to the
// external tests, which drive consumers of the format (the live replay
// engine) with strides other than the default.
func (t *Trace) EncodeV2BlockSize(w io.Writer, blockSize int) error {
	return t.encodeV2(w, blockSize)
}

// EncodeExplicit writes t in format f (v2 with block size bs) with
// every communicator's members listed one by one and no run flag: the
// header of images written before member lists were run coded.
func (t *Trace) EncodeExplicit(w io.Writer, f Format, bs int) error {
	e := &encoder{w: bufio.NewWriter(w), explicitComms: true}
	if f == FormatV1 {
		return t.encodeV1(e)
	}
	return t.writeV2(e, bs)
}
