package service

// DecodeSubmit is the submit handler's body decode, for the external fuzz
// target.
var DecodeSubmit = decodeSubmit
