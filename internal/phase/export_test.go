package phase

// ReferenceDetect is referenceDetect, for the tests outside the package.
var ReferenceDetect = referenceDetect

// sigString renders a signature as the artifact does.
func sigString(v uint64) string { return string(appendSig(nil, v)) }
