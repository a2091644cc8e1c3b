"""Contact-network inference from epidemic state observations.

Simulates SIS epidemics with spontaneous self-infection on small contact
networks, evaluates exact transition probabilities by integrating the
state-space master equation in tensor-train form, and recovers the
network from observed nodal states by Metropolis-Hastings likelihood
maximization.
"""

from .graphs import (Network, laplacian, fiedler_vector, fiedler_ordering,
                     permute_network, network_distance, is_connected,
                     parse_network, serialize_network, chain_network,
                     smallworld_network, austria_network)
from .tt import (TTVector, CPOperator, state_index, index_state, unit_state_tt,
                 tt_ones, tt_element, tt_to_dense, tt_from_dense, tt_add,
                 tt_scale, tt_round, tt_inner, cp_apply, cp_to_dense)
from .generator import (ModelParams, infected_neighbors, transition_rate,
                        reaction_rates, exit_rate_bound, build_generator_cp,
                        build_generator_dense)
from .forward import (SolverAccuracyError, SubstepLimitError, evolve_tt,
                      transition_prob_dense, dense_propagator,
                      transition_prob_ssa)
from .datagen import (EventTrajectory, ObservationSeries, simulate_epidemic,
                      resample_uniform, parse_observations,
                      serialize_observations)
from .likelihood import (LikelihoodReport, transition_prob_tt,
                         interval_probabilities, log_likelihood,
                         contrast_matrix, serialize_contrast)
from .inference import (ChainRecord, McmcChain, initial_scores, initial_guess,
                        ToggleProposer, NoReplacementProposer,
                        mh_ratio, maximize_loglike, mcmc_optimize,
                        serialize_chain)
