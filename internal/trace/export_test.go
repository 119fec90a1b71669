package trace

import "io"

func (t *Trace) encodeV2(w io.Writer, blockSize int) error {
	return t.write(newWriter(FormatV2, blockSize), w)
}

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
	tw := newWriter(f, bs)
	tw.explicitComms = true
	return t.write(tw, w)
}
