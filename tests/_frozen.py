"""Frozen reference values used across the test suite.

REFERENCE / STEEP / BELINFANTE / MC_* hold oracle values computed once,
before the package existed, with high-resolution quadrature (mpmath and
adaptive scipy.integrate cross-checks) and analytic results where
available.  REGRESSIONS holds pinned outputs of seeded package runs
(search outcomes have no closed form; the recorded run is the contract).
Tests compare against these literals; nothing here is recomputed from the
code under test.  The MC_* per-setting lists follow `CANONICAL_SETTINGS`,
whose analyzer differences are 22.5, 22.5, 22.5 and 67.5 degrees in
magnitude; p11 depends only on that magnitude, so each list holds the
oracle's 22.5-degree value three times and its 67.5-degree value last.
"""

REFERENCE = {
    "intensity_ratio": 0.443095978132422,
    "malus_residual": 0.04585257831370593,
    "malus_residual_argmax_deg": 25,
    "p1_at": {
        "0": 1.0,
        "3pi/8": 0.00036769648505518594,
        "pi/2": 1.1602896583563426e-08,
        "pi/4": 0.2742609110789993,
        "pi/8": 0.9613659262580037
    },
    "pair_P0": 1.226105551585797,
    "pair_P_90": 0.019944261191929564,
    "ratio_curve": {
        "0": 1.0,
        "10": 0.9529463173432204,
        "15": 0.9022020166313707,
        "20": 0.8415730026019754,
        "25": 0.7755412265295637,
        "30": 0.7067574394495866,
        "35": 0.6366540643287995,
        "40": 0.5660132360823164,
        "45": 0.49532601220688094,
        "5": 0.9875776911128081,
        "50": 0.4250111202883934,
        "55": 0.3555773503452527,
        "60": 0.28778072775589497,
        "65": 0.22281085934932235,
        "70": 0.16249513210760438,
        "75": 0.10937543975327739,
        "80": 0.06631548546011214,
        "85": 0.03534692822941749,
        "90": 0.016266349309106736
    }
}

REFERENCE_TRIPLE = {
    "a": 2.6,
    "c": 45.0,
    "e": 2.2
}

STEEP = {
    "intensity_ratio": 0.540500807589234,
    "malus_residual": 0.17771122048984328,
    "malus_residual_argmax_deg": 70,
    "p1_at": {
        "0": 1.0,
        "3pi/8": 2.0454764013332333e-06,
        "pi/2": 2.1811415637026035e-21,
        "pi/4": 0.8410807992965136,
        "pi/8": 0.9990585364434815
    },
    "pair_P0": 1.6168914318877283,
    "pair_P_90": 0.13616686631468902,
    "ratio_curve": {
        "0": 1.0,
        "10": 0.9382074671649507,
        "15": 0.8870175370010397,
        "20": 0.8338538457767412,
        "25": 0.7801637859465059,
        "30": 0.7262988572758955,
        "35": 0.6723662618287328,
        "40": 0.6184068002591894,
        "45": 0.5644379942953041,
        "5": 0.9813391432679367,
        "50": 0.5104671882796558,
        "55": 0.456497676908132,
        "60": 0.40253419697078685,
        "65": 0.3485887487659518,
        "70": 0.29468899893035433,
        "75": 0.24089937044691287,
        "80": 0.1873865595104061,
        "85": 0.13464021293644082,
        "90": 0.08421521917257832
    }
}

STEEP_TRIPLE = {
    "a": 1.95,
    "c": 500.0,
    "e": 3.56
}

BELINFANTE = {
    "intensity_ratio": 0.5,
    "malus_residual": 0.2366863641417561,
    "malus_residual_argmax_deg": 70,
    "pair_P0": 1.1780972450961724,
    "pair_P_90": 0.19634954084936207,
    "q11_analytic": "1/4 + cos(2*alpha)/8",
    "ratio_90": 0.16666666666666666
}

MC_REFERENCE = {
    "E_all_settings": [
        0.4906143023019573,
        0.49061430230195724,
        0.49061430230195746,
        -0.4726319872377038
    ],
    "E_ps_settings": [
        1.6082261859455933,
        1.6082261859455935,
        1.6082261859455933,
        0.3816861258243622
    ],
    "S_all": 1.9444748941435757,
    "S_ps": 4.442992432012418,
    "q11_alpha0": 0.3902815185745889,
    "q11_alpha45": 0.19331660402922093,
    "q11_alpha90": 0.01269691102008446,
    "q11_settings": [
        0.31574955370791136,
        0.3157495537079114,
        0.31574955370791136,
        0.07493798132299606
    ],
    "singles_rate": 0.443095978132422
}

MC_BELINFANTE = {
    "E_all_settings": [
        0.3535533905932738,
        0.3535533905932738,
        0.3535533905932738,
        -0.35355339059327373
    ],
    "E_ps_settings": [
        1.3535533905932737,
        1.3535533905932737,
        1.3535533905932737,
        0.6464466094067263
    ],
    "S_all": 1.4142135623730951,
    "S_ps": 3.414213562373095,
    "q11_settings": [
        0.33838834764831843,
        0.33838834764831843,
        0.33838834764831843,
        0.16161165235168157
    ],
    "singles_rate": 0.5
}

REGRESSIONS = {
    "fit_default_from_reference": {
        "converged": True,
        "intensity_ratio_at_fit": 0.40665724778856305,
        "residual": 0.03452296415587541,
        "threshold": 0.0346
    },
    "fit_far_start": {
        "config": {
            "max_iterations": 200,
            "restarts": 3,
            "seed": 0,
            "tolerance": 1e-06
        },
        "residual": 0.03440203387885453,
        "start": [
            1.0,
            2.0,
            100.0
        ]
    },
    "post_selection_separation": {
        "S_belinfante": 3.4168447555123933,
        "S_reference": 4.444777021034267,
        "combined_error": 0.005615287933324496,
        "difference": 1.0279322655218737,
        "n_pairs": 1000000,
        "seed": 7,
        "stderr_belinfante": 0.003594382544948295,
        "stderr_reference": 0.00431414796856931
    },
    "residual_at_far_start_point": 0.527088094451451
}

GRID_DEG = [
    0,
    5,
    10,
    15,
    20,
    25,
    30,
    35,
    40,
    45,
    50,
    55,
    60,
    65,
    70,
    75,
    80,
    85,
    90
]
