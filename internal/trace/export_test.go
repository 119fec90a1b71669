package trace

import "io"

// EncodeV2BlockSize exposes the v2 encoder's block-size knob to the
// external tests, which drive consumers of the format (the live replay
// engine) with strides other than the default.
func (t *Trace) EncodeV2BlockSize(w io.Writer, blockSize int) error {
	return t.encodeV2(w, blockSize)
}
