//go:build !amd64 || purego

package wavelet

import "stwave/internal/num"

// This build has no vector row bodies: the Go loops lift every lane.

var useAVX2 = false

func addSumRowVec[F num.Float](x, a, b []F, c F) int            { return 0 }
func scaleRowVec[F num.Float](d, x []F, s F) int                { return 0 }
func addSumScaleRowVec[F num.Float](d, x, a, b []F, c, s F) int { return 0 }
func scaleAddSumRowVec[F num.Float](d, x, a, b []F, s, c F) int { return 0 }
