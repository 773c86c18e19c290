//go:build race

package bayou_test

func init() { raceDetector = true }
