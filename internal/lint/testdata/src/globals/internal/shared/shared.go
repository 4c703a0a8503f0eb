// Package shared declares a package-level variable another package writes.
package shared

var Limit int
