package matcher

// MergeBounds exposes mergeBounds to tests that rebuild a filter.
var MergeBounds = mergeBounds
