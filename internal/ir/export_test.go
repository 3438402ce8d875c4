package ir

// RefMarshalLoop exposes the reference encoder to the external tests in
// codec_test.go, which need the kernel catalog and the loop generator
// (packages that import ir).
var RefMarshalLoop = refMarshalLoop
