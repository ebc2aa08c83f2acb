package chanalloc

import (
	"github.com/multiradio/chanalloc/internal/core"
	"github.com/multiradio/chanalloc/internal/spectrum"
)

// Spectrum modelling: bands, channels, devices and radio-level assignments.
type (
	// Band is a frequency band of equal-width orthogonal channels.
	Band = spectrum.Band
	// SpectrumChannel is one channel of a band, with its center frequency.
	SpectrumChannel = spectrum.Channel
	// Device is a multi-radio node.
	Device = spectrum.Device
	// Deployment binds devices to a band.
	Deployment = spectrum.Deployment
	// Assignment maps one radio of one device to a concrete channel.
	Assignment = spectrum.Assignment
)

// ISM2400 returns the 2.4 GHz ISM band as its three orthogonal channels.
func ISM2400() Band { return spectrum.ISM2400() }

// UNII5GHz returns a 5 GHz U-NII band with eight orthogonal channels.
func UNII5GHz() Band { return spectrum.UNII5GHz() }

// NewDeployment validates devices against a band.
func NewDeployment(band Band, devs []Device) (*Deployment, error) {
	return spectrum.NewDeployment(band, devs)
}

// Placer exposes the per-user greedy placement routine shared by
// Algorithm 1 and the distributed protocol.
type Placer = core.Placer
