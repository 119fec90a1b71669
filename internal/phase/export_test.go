package phase

// ReferenceDetect is referenceDetect, for the tests outside the package.
var ReferenceDetect = referenceDetect
