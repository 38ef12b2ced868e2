package cluster

// Point fixtures shared with the external cluster_test package.
var (
	Blob         = blob
	UniformNoise = uniformNoise
)
