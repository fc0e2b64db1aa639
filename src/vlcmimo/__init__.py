"""Link-level simulator for indoor multi-user MIMO visible-light communication.

Implements the Lambertian line-of-sight channel, channel-inversion and
symbol-adaptive optical precoding over on-off keying, closed-form error and
throughput analysis under fresh and outdated channel knowledge, and a
deterministic Monte Carlo engine for cross-validation.
"""

__version__ = "0.3.0"

from .analytic import (ber_ci_outdated, ber_ci_perfect, ber_oap_outdated,
                       ber_oap_perfect, q_function, throughput)
from .channel import (ChannelMatrix, GainMap, GeometryError, Luminaire,
                      PhotoDetector, RoomLayout, build_channel_matrix,
                      distance_gain_prefactor, gain_map, square_grid_layout)
from .config import ConfigError, ExperimentConfig, load_config, preset
from .csi import error_bound, perturb_channel
from .montecarlo import BerCurve, BerEstimate, SimConfig, simulate, sweep
from .noise import (physical_sigma, shot_variance, sigma_from_transmit_snr,
                    thermal_variance, total_sigma)
from .precoding import (Precoder, SingularChannelError, ci_precoder,
                        combination_matrix)
