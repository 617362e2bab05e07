//go:build !race

package cha

const raceEnabled = false
